(* Property-based tests (the executable counterpart of the paper's proved
   SPMD-lowering correctness, DESIGN.md section 1):

   1. TMR soundness: every registry rule, applied as a loop nest around a
      single op, preserves the op's semantics under sequential (temporal)
      interpretation.
   2. End-to-end: random straight-line programs with random tile/atomic
      actions evaluate identically under the reference interpreter, the
      temporal interpreter, and lockstep multi-device SPMD execution.
   3. Batched seeding: random action lists on random partcheck programs
      give the same module applied as one [Staged.apply] batch as applied
      one at a time; batches are all-or-nothing.
   4. Collective lint by replica-group class: on lowered partcheck
      programs it reports what the per-device rendezvous replay reports,
      and under planted group functions it fails exactly when the replay
      over the same groups fails. *)

open Partir_tensor
open Partir_hlo
open Partir_core
module Mesh = Partir_mesh.Mesh
module Temporal = Partir_temporal.Temporal
module Lower = Partir_spmd.Lower
module Spmd_interp = Partir_spmd.Spmd_interp
module Mlp = Partir_models.Mlp
module Gen = Partir_check.Gen
module Cache = Partir_serve.Cache
module Oracle = Partir_check.Oracle
module Fusion = Partir_spmd.Fusion
module Collective_lint = Partir_analysis.Collective_lint

let random_literal st (v : Value.t) =
  Literal.init v.Value.ty.Value.dtype v.Value.ty.Value.shape (fun _ ->
      if Dtype.is_integer v.Value.ty.Value.dtype then
        float_of_int (Random.State.int st 4)
      else Random.State.float st 2. -. 1.)

(* A catalogue of single-op functions whose TMR rules we exhaustively
   check. *)
let op_catalogue () =
  let f name build =
    let b = Builder.create name in
    let out = build b in
    (name, Builder.finish b [ out ])
  in
  [
    f "matmul" (fun b ->
        let x = Builder.param b "x" [| 4; 6 |] Dtype.F32 in
        let y = Builder.param b "y" [| 6; 8 |] Dtype.F32 in
        Builder.matmul b x y);
    f "batched-matmul" (fun b ->
        let x = Builder.param b "x" [| 2; 4; 6 |] Dtype.F32 in
        let y = Builder.param b "y" [| 2; 6; 4 |] Dtype.F32 in
        Builder.matmul b x y);
    f "add" (fun b ->
        let x = Builder.param b "x" [| 4; 4 |] Dtype.F32 in
        let y = Builder.param b "y" [| 4; 4 |] Dtype.F32 in
        Builder.add2 b x y);
    f "transpose" (fun b ->
        let x = Builder.param b "x" [| 4; 6 |] Dtype.F32 in
        Builder.transpose b x [| 1; 0 |]);
    f "reshape-merge" (fun b ->
        let x = Builder.param b "x" [| 4; 6 |] Dtype.F32 in
        Builder.reshape b x [| 24 |]);
    f "reshape-split" (fun b ->
        let x = Builder.param b "x" [| 8; 6 |] Dtype.F32 in
        Builder.reshape b x [| 2; 4; 6 |]);
    f "reduce-sum" (fun b ->
        let x = Builder.param b "x" [| 4; 6 |] Dtype.F32 in
        Builder.reduce_sum b x [| 1 |]);
    f "reduce-max" (fun b ->
        let x = Builder.param b "x" [| 4; 6 |] Dtype.F32 in
        Builder.reduce_max b x [| 0 |]);
    f "broadcast" (fun b ->
        let x = Builder.param b "x" [| 4 |] Dtype.F32 in
        Builder.broadcast b x [| 4; 6 |] [| 0 |]);
    f "concat" (fun b ->
        let x = Builder.param b "x" [| 4; 2 |] Dtype.F32 in
        let y = Builder.param b "y" [| 4; 6 |] Dtype.F32 in
        Builder.concat b [ x; y ] 1);
    f "slice-full-dim" (fun b ->
        let x = Builder.param b "x" [| 4; 6 |] Dtype.F32 in
        Builder.add b (Op.Slice { starts = [| 0; 1 |]; limits = [| 4; 5 |] }) [ x ]);
    f "take" (fun b ->
        let x = Builder.param b "x" [| 6; 4 |] Dtype.F32 in
        let i = Builder.param b "i" [| 8 |] Dtype.I32 in
        Builder.take b x i ~axis:0);
    f "scatter_add" (fun b ->
        let x = Builder.param b "x" [| 6; 4 |] Dtype.F32 in
        let i = Builder.param b "i" [| 8 |] Dtype.I32 in
        let u = Builder.param b "u" [| 8; 4 |] Dtype.F32 in
        Builder.add b (Op.Scatter_add { axis = 0 }) [ x; i; u ]);
    f "conv2d" (fun b ->
        let x = Builder.param b "x" [| 2; 4; 4; 2 |] Dtype.F32 in
        let k = Builder.param b "k" [| 3; 3; 2; 4 |] Dtype.F32 in
        Builder.add b (Op.Conv2d { stride = 1; padding = 1 }) [ x; k ]);
    f "pad" (fun b ->
        let x = Builder.param b "x" [| 4; 6 |] Dtype.F32 in
        Builder.add b (Op.Pad { low = [| 0; 1 |]; high = [| 0; 1 |]; value = 0. }) [ x ]);
  ]

(* Check one TMR rule by interpreting the staged single-op module
   temporally and against the plain reference. *)
let check_rule name (f : Func.t) (rule : Tmr.rule) axis_size =
  let mesh = Mesh.create [ ("a", axis_size) ] in
  let staged = Staged.of_func mesh f in
  (match staged.Staged.body with
  | [ sop ] ->
      sop.Staged.nest <-
        [
          {
            Action.axis = "a";
            operand_dims = rule.Tmr.operand_dims;
            result_actions = rule.Tmr.result_actions;
          };
        ]
  | _ -> Alcotest.fail "catalogue entries must be single-op");
  let st = Random.State.make [| Hashtbl.hash (name, axis_size) |] in
  let args = List.map (random_literal st) f.Func.params in
  let reference = Interp.run f args in
  let temporal = Temporal.run staged args in
  List.iter2
    (fun a b ->
      Alcotest.(check bool)
        (Printf.sprintf "%s rule %s (axis %d): temporal = reference" name
           (Tmr.rule_to_string rule) axis_size)
        true
        (Literal.max_abs_diff a b < 1e-4))
    reference temporal;
  (* And through SPMD lowering + lockstep execution. *)
  let program = Lower.lower staged in
  let spmd = Spmd_interp.run program args in
  List.iter2
    (fun a b ->
      Alcotest.(check bool)
        (Printf.sprintf "%s rule %s (axis %d): spmd = reference" name
           (Tmr.rule_to_string rule) axis_size)
        true
        (Literal.max_abs_diff a b < 1e-4))
    reference spmd

let tmr_soundness_tests =
  List.map
    (fun (name, f) ->
      Alcotest.test_case name `Quick (fun () ->
          let checked = ref 0 in
          List.iter
            (fun axis_size ->
              let op = List.hd f.Func.body in
              List.iter
                (fun rule ->
                  incr checked;
                  check_rule name f rule axis_size)
                (Tmr.rules_for ~axis_size op))
            [ 2; 4 ];
          Alcotest.(check bool)
            (Printf.sprintf "%s has rules" name)
            true (!checked > 0)))
    (op_catalogue ())

(* Random program + random actions: full pipeline differential test. *)
let random_pipeline_test =
  let open QCheck in
  Test.make ~name:"random programs x random tactics: spmd = temporal = reference"
    ~count:60
    (triple (int_range 0 10000) (int_range 1 6) (int_range 0 2))
    (fun (seed, max_ops, n_actions) ->
      let f = Mlp.random_chain ~seed ~max_ops in
      let mesh = Mesh.create [ ("a", 2); ("b", 2) ] in
      let staged = Staged.of_func mesh f in
      let st = Random.State.make [| seed + 17 |] in
      (* Apply random (possibly deep) tile/atomic actions to random params. *)
      for _ = 1 to n_actions do
        let p =
          List.nth staged.Staged.params
            (Random.State.int st (List.length staged.Staged.params))
        in
        let axis = if Random.State.bool st then "a" else "b" in
        try
          if Random.State.int st 4 = 0 then
            ignore (Staged.atomic staged ~value:p ~axis)
          else
            ignore
              (Staged.tile staged ~value:p
                 ~dim:(Random.State.int st 2)
                 ~axis)
        with Staged.Action_error _ -> ()
      done;
      ignore (Propagate.run staged);
      let args = List.map (random_literal st) f.Func.params in
      let reference = Interp.run f args in
      let temporal = Temporal.run staged args in
      let program = Lower.lower staged in
      let spmd = Spmd_interp.run program args in
      List.for_all2 (fun a b -> Literal.max_abs_diff a b < 1e-3) reference temporal
      && List.for_all2 (fun a b -> Literal.max_abs_diff a b < 1e-3) reference spmd)

(* Random seeding actions over [targets]: tiles (some with out-of-range
   dims), atomics, and [Tile_by] picking the first dim not yet tiled. *)
let random_action st targets axes =
  let value = targets.(Random.State.int st (Array.length targets)) in
  let axis = axes.(Random.State.int st (Array.length axes)) in
  let rank = Shape.rank value.Value.ty.Value.shape in
  match Random.State.int st 4 with
  | 0 -> Staged.Atomic { value; axis }
  | 1 ->
      let choose current =
        List.find_opt
          (fun d -> not (List.mem_assoc d current))
          (List.init rank Fun.id)
      in
      Staged.Tile_by { value; axis; choose }
  | _ -> Staged.Tile { value; dim = Random.State.int st (rank + 1); axis }

(* A partcheck program with its seeding targets: the top-level value pool
   plus every [For] region parameter and region-body result. *)
let seeding_case seed =
  let c = Gen.generate ~seed in
  let func, mesh, pool = Gen.build c in
  let region_values =
    List.concat_map
      (fun (s : Staged.sop) ->
        match s.Staged.op.Op.region with
        | Some r ->
            r.Op.params
            @ List.concat_map
                (fun (b : Staged.sop) -> b.Staged.op.Op.results)
                s.Staged.region_body
        | None -> [])
      (Staged.all_sops (Staged.of_func mesh func))
  in
  ( func,
    mesh,
    Array.of_list (pool @ region_values),
    Array.of_list (List.map fst c.Gen.mesh) )

(* Applies [actions] one per call, keeping the legal ones. *)
let apply_one_at_a_time staged actions =
  List.filter
    (fun a ->
      match Staged.apply staged [ a ] with
      | _ -> true
      | exception Staged.Action_error _ -> false)
    actions

let batch_seeding_test =
  let open QCheck in
  Test.make ~name:"one batch = one action at a time (to_string, digest)"
    ~count:300
    (pair (int_range 0 100000) (int_range 1 10))
    (fun (seed, n_actions) ->
      let func, mesh, targets, axes = seeding_case seed in
      let st = Random.State.make [| seed |] in
      let actions =
        List.init n_actions (fun _ -> random_action st targets axes)
      in
      let one = Staged.of_func mesh func in
      let legal = apply_one_at_a_time one actions in
      let batch = Staged.of_func mesh func in
      ignore (Staged.apply batch legal);
      let digest s = Cache.digest_func (Staged.to_func s) in
      Staged.to_string batch = Staged.to_string one
      && digest batch = digest one)

(* An illegal action in the middle of a batch raises and leaves the
   module untouched, whether it is illegal on its own (unknown axis) or
   only after an earlier action of the same batch (deep tiling). *)
let test_batch_all_or_nothing () =
  let check_rejected what staged actions =
    let before = Staged.to_string staged in
    (match Staged.apply staged actions with
    | _ -> Alcotest.failf "%s: batch applied" what
    | exception Staged.Action_error _ -> ());
    Alcotest.(check string) (what ^ ": module unchanged") before
      (Staged.to_string staged)
  in
  for seed = 0 to 40 do
    let func, mesh, targets, axes = seeding_case seed in
    let st = Random.State.make [| seed |] in
    let legal =
      apply_one_at_a_time (Staged.of_func mesh func)
        (List.init 6 (fun _ -> random_action st targets axes))
    in
    let k = List.length legal / 2 in
    let bad = Staged.Tile { value = targets.(0); dim = 0; axis = "no-such-axis" } in
    check_rejected
      (Printf.sprintf "seed %d" seed)
      (Staged.of_func mesh func)
      (List.filteri (fun i _ -> i < k) legal
      @ (bad :: List.filteri (fun i _ -> i >= k) legal))
  done;
  let b = Builder.create "f" in
  let x = Builder.param b "x" [| 4; 4 |] Dtype.F32 in
  let func = Builder.finish b [ Builder.add2 b x x ] in
  let mesh = Mesh.create [ ("a", 2); ("b", 4) ] in
  check_rejected "deep tiling" (Staged.of_func mesh func)
    [
      Staged.Tile { value = x; dim = 0; axis = "a" };
      Staged.Tile { value = x; dim = 0; axis = "b" };
      Staged.Atomic { value = x; axis = "a" };
    ];
  let staged = Staged.of_func mesh func in
  match
    Staged.apply staged
      [
        Staged.Tile { value = x; dim = 0; axis = "a" };
        Staged.Tile { value = x; dim = 1; axis = "b" };
      ]
  with
  | [ s1; s2 ] ->
      Alcotest.(check bool) "chained seeds" true (s1.Value.id <> s2.Value.id)
  | _ -> Alcotest.fail "expected one result per action"

(* Both lowered programs of a partcheck case, unfused and fused. *)
let lowered_case seed =
  let c = Gen.generate ~seed in
  let func, mesh, pool = Gen.build c in
  let staged = Staged.of_func mesh func in
  ignore (Oracle.apply_schedule c staged pool);
  let p0 = Lower.lower ~fuse:false staged in
  [ p0; { p0 with Lower.func = Fusion.run p0.Lower.func } ]

let lint_classes_test =
  let open QCheck in
  Test.make ~name:"class check = per-device replay on lowered programs"
    ~count:200 (int_range 0 100000) (fun seed ->
      List.for_all
        (fun (p : Lower.program) ->
          let mesh = p.Lower.mesh and f = p.Lower.func in
          Collective_lint.func ~mesh f = Collective_lint.replay ~mesh f)
        (lowered_case seed))

(* A planted group function rewrites the groups of one victim device (or
   of every device), given the class's true group function, so per-device
   traces and the class check see the same groups. *)
let plant st ~n =
  let victim = Random.State.int st n in
  let other = Random.State.int st n in
  match Random.State.int st 7 with
  | 0 -> fun truth d -> truth d
  | 1 ->
      fun truth d ->
        if d = victim then List.filter (( <> ) d) (truth d) else truth d
  | 2 -> fun truth d -> if d = victim then truth d @ [ n ] else truth d
  | 3 -> fun truth d -> if d = victim then [ d ] else truth d
  | 4 ->
      fun truth d ->
        if d = victim then List.sort_uniq compare (other :: truth d) else truth d
  | 5 -> fun truth d -> truth (if d = victim then other else d)
  | _ -> fun _ d -> [ d ]

let planted_groups_test =
  let open QCheck in
  Test.make ~name:"planted groups: class check fails iff the replay fails"
    ~count:200 (int_range 0 100000) (fun seed ->
      let st = Random.State.make [| seed |] in
      List.for_all
        (fun (p : Lower.program) ->
          let mesh = p.Lower.mesh and f = p.Lower.func in
          let planted = plant st ~n:(Mesh.num_devices mesh) in
          let classes =
            Collective_lint.func
              ~group:(fun axes -> planted (Collective_lint.peers mesh axes))
              ~mesh f
          in
          (* Event k is the same collective on every device. *)
          let traces = Array.map Array.of_list (Collective_lint.trace mesh f) in
          let traces =
            Array.mapi
              (fun d events ->
                List.mapi
                  (fun k (e : Collective_lint.event) ->
                    let truth x = traces.(x).(k).Collective_lint.group in
                    { e with Collective_lint.group = planted truth d })
                  (Array.to_list events))
              traces
          in
          List.for_all
            (fun (d : Partir_analysis.Diagnostic.t) -> d.code = "CL004")
            classes
          && (classes = []) = (Collective_lint.check_traces mesh traces = []))
        (lowered_case seed))

let mesh_tests =
  let open QCheck in
  [
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"device linearization roundtrip" ~count:100
         (int_range 0 15)
         (fun i ->
           let mesh = Mesh.create [ ("x", 2); ("y", 4); ("z", 2) ] in
           Mesh.linear_of_device mesh (Mesh.device_of_linear mesh i) = i));
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"group peers partition the mesh" ~count:50
         (int_range 0 15)
         (fun i ->
           let mesh = Mesh.create [ ("x", 2); ("y", 4); ("z", 2) ] in
           let d = Mesh.device_of_linear mesh i in
           let peers = Mesh.group_peers mesh d [ "y" ] in
           List.length peers = 4
           && List.exists (fun p -> p = d) peers
           && List.for_all (fun p -> p.(0) = d.(0) && p.(2) = d.(2)) peers));
  ]

let () =
  Alcotest.run "properties"
    [
      ("tmr-soundness", tmr_soundness_tests);
      ("pipeline", [ QCheck_alcotest.to_alcotest random_pipeline_test ]);
      ( "batch-seeding",
        [
          QCheck_alcotest.to_alcotest batch_seeding_test;
          Alcotest.test_case "all-or-nothing" `Quick test_batch_all_or_nothing;
        ] );
      ( "lint-classes",
        [
          QCheck_alcotest.to_alcotest lint_classes_test;
          QCheck_alcotest.to_alcotest planted_groups_test;
        ] );
      ("mesh", mesh_tests);
    ]
