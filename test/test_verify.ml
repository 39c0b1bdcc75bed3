(* Tests for the static analyzers (Partir_analysis): each planted defect
   must be reported with its exact diagnostic code, and everything the real
   pipeline produces — benchmark models and partcheck-generated cases,
   before and after fusion — must verify with zero diagnostics. *)

open Partir
module Gen = Partir_check.Gen
module Oracle = Partir_check.Oracle

let ty shape dtype = Value.ttype shape dtype
let f32 shape = ty shape Dtype.F32

let codes diags = List.map (fun (d : Diagnostic.t) -> d.Diagnostic.code) diags

let check_has_code what code diags =
  if not (Diagnostic.has_code code diags) then
    Alcotest.failf "%s: expected %s among [%s]" what code
      (String.concat "; " (codes diags))

let check_clean what diags =
  match Diagnostic.errors diags with
  | [] -> ()
  | errs ->
      Alcotest.failf "%s: expected zero diagnostics, got:\n%s" what
        (Diagnostic.list_to_string errs)

(* {1 Verify: hand-built known-bad HLO} *)

let test_wrong_result_shape () =
  let x = Value.fresh ~name:"x" (f32 [| 4; 4 |]) in
  let op = Op.make Op.Matmul [ x; x ] () in
  (* Tamper: record a [4;8] result for a [4;4] matmul. *)
  let bad = { op with Op.results = [ Value.fresh ~name:"y" (f32 [| 4; 8 |]) ] } in
  let f =
    { Func.name = "bad_shape"; params = [ x ]; body = [ bad ]; results = bad.Op.results }
  in
  let diags = Verify.func f in
  check_has_code "tampered matmul result" "V006" diags;
  (* Func.verify (the exception twin) must also locate the op. *)
  match Func.verify f with
  | () -> Alcotest.fail "Func.verify accepted a tampered result type"
  | exception Func.Verification_error msg ->
      if not (String.length msg > 0 && String.contains msg '#') then
        Alcotest.failf "no op-index context in %S" msg

let test_dtype_mismatch () =
  let x = Value.fresh ~name:"x" (f32 [| 4 |]) in
  let y = Value.fresh ~name:"y" (ty [| 4 |] Dtype.I32) in
  (* Op.infer checks shapes only, so this builds — Verify must flag it. *)
  let op = Op.make (Op.Binary Op.Add) [ x; y ] () in
  let f =
    { Func.name = "bad_dtype"; params = [ x; y ]; body = [ op ]; results = op.Op.results }
  in
  check_has_code "f32+i32 add" "V007" (Verify.func f)

let test_select_pred_dtype () =
  let p = Value.fresh ~name:"p" (f32 [| 4 |]) in
  let x = Value.fresh ~name:"x" (f32 [| 4 |]) in
  let op = Op.make Op.Select [ p; x; x ] () in
  let f =
    { Func.name = "bad_pred"; params = [ p; x ]; body = [ op ]; results = op.Op.results }
  in
  check_has_code "non-bool select predicate" "V007" (Verify.func f)

let test_collective_axis_checks () =
  let x = Value.fresh ~name:"x" (f32 [| 4; 4 |]) in
  let mesh = Mesh.create [ ("a", 2); ("b", 2) ] in
  let mk kind =
    let op = Op.make kind [ x ] () in
    { Func.name = "coll"; params = [ x ]; body = [ op ]; results = op.Op.results }
  in
  check_has_code "unknown axis" "V009"
    (Verify.func ~mesh (mk (Op.All_reduce { axes = [ ("z", 2) ]; reduce = Op.Rsum })));
  check_has_code "wrong axis size" "V010"
    (Verify.func ~mesh (mk (Op.All_reduce { axes = [ ("a", 4) ]; reduce = Op.Rsum })));
  check_has_code "repeated axis" "V011"
    (Verify.func ~mesh
       (mk (Op.All_reduce { axes = [ ("a", 2); ("a", 2) ]; reduce = Op.Rsum })))

(* {1 Verify: staged well-formedness} *)

(* A staged matmul module whose nest we corrupt by hand ([Staged.tile]
   itself refuses to build these). *)
let staged_matmul ~mesh ~m ~k =
  let b = Builder.create "staged" in
  let x = Builder.param b "x" [| m; k |] Dtype.F32 in
  let y = Builder.param b "y" [| k; m |] Dtype.F32 in
  let z = Builder.add b Op.Matmul [ x; y ] in
  let f = Builder.finish b [ z ] in
  Staged.of_func mesh f

let test_axis_tiled_twice () =
  let mesh = Mesh.create [ ("a", 2) ] in
  let t = staged_matmul ~mesh ~m:4 ~k:4 in
  (match t.Staged.body with
  | [ sop ] ->
      sop.Staged.nest <-
        [
          {
            Action.axis = "a";
            operand_dims = [| Some 0; None |];
            result_actions = [| Action.Tile 0 |];
          };
          {
            Action.axis = "a";
            operand_dims = [| Some 1; None |];
            result_actions = [| Action.Tile 1 |];
          };
        ]
  | _ -> Alcotest.fail "unexpected staged body");
  check_has_code "axis on two dims" "S003" (Verify.staged t)

let test_non_divisible_tile () =
  let mesh = Mesh.create [ ("a", 3) ] in
  let t = staged_matmul ~mesh ~m:4 ~k:4 in
  (match t.Staged.body with
  | [ sop ] ->
      sop.Staged.nest <-
        [
          {
            Action.axis = "a";
            operand_dims = [| Some 0; None |];
            result_actions = [| Action.Tile 0 |];
          };
        ]
  | _ -> Alcotest.fail "unexpected staged body");
  let diags = Verify.staged t in
  check_has_code "4 not divisible by 3" "S004" diags;
  (* Staged.validate must agree with the diagnostic pass. *)
  match Staged.validate t with
  | () -> Alcotest.fail "Staged.validate accepted a non-divisible tile"
  | exception Staged.Action_error _ -> ()

let test_unknown_nest_axis () =
  let mesh = Mesh.create [ ("a", 2) ] in
  let t = staged_matmul ~mesh ~m:4 ~k:4 in
  (match t.Staged.body with
  | [ sop ] ->
      sop.Staged.nest <-
        [
          {
            Action.axis = "zz";
            operand_dims = [| Some 0; None |];
            result_actions = [| Action.Tile 0 |];
          };
        ]
  | _ -> Alcotest.fail "unexpected staged body");
  check_has_code "unknown nest axis" "S001" (Verify.staged t)

(* {1 ShardCheck: hand-built lowered programs} *)

let program_of ~mesh ~params ~input_layouts ~body ~results ~output_layouts =
  {
    Lower.mesh;
    func = { Func.name = "p_spmd"; params; body; results };
    source_params = params;
    source_results = results;
    input_layouts;
    output_layouts;
    source_flops = 0.;
  }

let test_operand_layout_mismatch () =
  let mesh = Mesh.create [ ("d", 2) ] in
  let x = Value.fresh ~name:"x" (f32 [| 4; 4 |]) in
  let y = Value.fresh ~name:"y" (f32 [| 4; 4 |]) in
  let op = Op.make (Op.Binary Op.Add) [ x; y ] () in
  let p =
    program_of ~mesh ~params:[ x; y ]
      ~input_layouts:[ [| [ "d" ]; [] |]; [| []; [] |] ]
      ~body:[ op ] ~results:op.Op.results
      ~output_layouts:[ [| []; [] |] ]
  in
  check_has_code "add of differently-sharded operands" "SC001"
    (Shard_check.program p)

let test_all_reduce_without_partial () =
  let mesh = Mesh.create [ ("d", 2) ] in
  let x = Value.fresh ~name:"x" (f32 [| 4; 4 |]) in
  let op = Op.make (Op.All_reduce { axes = [ ("d", 2) ]; reduce = Op.Rsum }) [ x ] () in
  let p =
    program_of ~mesh ~params:[ x ]
      ~input_layouts:[ [| []; [] |] ]
      ~body:[ op ] ~results:op.Op.results
      ~output_layouts:[ [| []; [] |] ]
  in
  check_has_code "all_reduce of a fully-reduced value" "SC006"
    (Shard_check.program p)

let test_output_layout_mismatch () =
  let mesh = Mesh.create [ ("d", 2) ] in
  let x = Value.fresh ~name:"x" (f32 [| 4; 4 |]) in
  let p =
    program_of ~mesh ~params:[ x ]
      ~input_layouts:[ [| [ "d" ]; [] |] ]
      ~body:[] ~results:[ x ]
      ~output_layouts:[ [| []; [] |] ]
  in
  check_has_code "sharded result declared replicated" "SC007"
    (Shard_check.program p)

let test_gather_not_suffix () =
  let mesh = Mesh.create [ ("a", 2); ("b", 2) ] in
  let x = Value.fresh ~name:"x" (f32 [| 2; 4 |]) in
  (* x is sliced [a then b] on dim 0; gathering only [a] peels the wrong
     (outermost) end. *)
  let op =
    Op.make (Op.All_gather { dim_axes = [| [ ("a", 2) ]; [] |] }) [ x ] ()
  in
  let p =
    program_of ~mesh ~params:[ x ]
      ~input_layouts:[ [| [ "a"; "b" ]; [] |] ]
      ~body:[ op ] ~results:op.Op.results
      ~output_layouts:[ [| [ "b" ]; [] |] ]
  in
  check_has_code "gather of a non-suffix axis" "SC002" (Shard_check.program p)

let test_double_slice () =
  let mesh = Mesh.create [ ("a", 2) ] in
  let x = Value.fresh ~name:"x" (f32 [| 4; 4 |]) in
  let op = Op.make (Op.All_slice { dim_axes = [| [ ("a", 2) ]; [] |] }) [ x ] () in
  let p =
    program_of ~mesh ~params:[ x ]
      ~input_layouts:[ [| [ "a" ]; [] |] ]
      ~body:[ op ] ~results:op.Op.results
      ~output_layouts:[ [| [ "a"; "a" ]; [] |] ]
  in
  check_has_code "axis slicing a dim twice" "SC003" (Shard_check.program p)

(* {1 CollectiveLint: planted deadlocks} *)

let ev path desc group = { Collective_lint.path; desc; group }

let test_swapped_all_reduce_order () =
  let mesh = Mesh.create [ ("d", 2) ] in
  let traces =
    [|
      [ ev "p/op#0" "all_reduce sum {a:2}" [ 0; 1 ];
        ev "p/op#1" "all_reduce sum {b:2}" [ 0; 1 ] ];
      [ ev "p/op#0" "all_reduce sum {b:2}" [ 0; 1 ];
        ev "p/op#1" "all_reduce sum {a:2}" [ 0; 1 ] ];
    |]
  in
  check_has_code "swapped all_reduce order" "CL005"
    (Collective_lint.check_traces mesh traces)

let test_replica_group_missing_device () =
  let mesh = Mesh.create [ ("d", 2) ] in
  let traces =
    [|
      [ ev "p/op#0" "all_reduce sum {d:2}" [ 1 ] ];
      [ ev "p/op#0" "all_reduce sum {d:2}" [ 0; 1 ] ];
    |]
  in
  check_has_code "group missing its own device" "CL004"
    (Collective_lint.check_traces mesh traces)

let test_peer_exhausted () =
  let mesh = Mesh.create [ ("d", 2) ] in
  let traces =
    [| [ ev "p/op#0" "all_reduce sum {d:2}" [ 0; 1 ] ]; [] |]
  in
  check_has_code "peer finished early" "CL006"
    (Collective_lint.check_traces mesh traces)

let test_collective_bad_axis () =
  let mesh = Mesh.create [ ("d", 2) ] in
  let x = Value.fresh ~name:"x" (f32 [| 4; 4 |]) in
  let mk kind =
    let op = Op.make kind [ x ] () in
    { Func.name = "coll"; params = [ x ]; body = [ op ]; results = op.Op.results }
  in
  check_has_code "unknown axis" "CL001"
    (Collective_lint.func ~mesh
       (mk (Op.All_reduce { axes = [ ("z", 2) ]; reduce = Op.Rsum })));
  check_has_code "wrong size" "CL002"
    (Collective_lint.func ~mesh
       (mk (Op.All_reduce { axes = [ ("d", 4) ]; reduce = Op.Rsum })))

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* The class check behind [Collective_lint.func], through its [group]
   seam: a group function that omits the device itself, names a device
   outside the mesh, or disagrees between members must yield CL004 at any
   mesh size — 512 devices included, which the per-device replay never
   reached. *)
let test_planted_group_functions () =
  List.iter
    (fun axes ->
      let mesh = Mesh.create axes in
      let n = Mesh.num_devices mesh in
      let names = List.map fst axes in
      let all_reduce group_axes v =
        Op.make
          (Op.All_reduce
             {
               axes = List.map (fun a -> (a, Mesh.axis_size mesh a)) group_axes;
               reduce = Op.Rsum;
             })
          [ v ] ()
      in
      (* Two classes: one axis at top level, every axis inside a loop. *)
      let x = Value.fresh ~name:"x" (f32 [| 4; 4 |]) in
      let carry = Value.fresh ~name:"acc" (f32 [| 4; 4 |]) in
      let inner = all_reduce names carry in
      let loop =
        Op.make
          (Op.For { trip_count = 2; n_carries = 1 })
          [ x ]
          ~region:
            {
              Op.params = [ Value.fresh ~name:"i" (ty Shape.scalar Dtype.I32); carry ];
              body = [ inner ];
              yields = inner.Op.results;
            }
          ()
      in
      let f =
        {
          Func.name = "groups";
          params = [ x ];
          body = [ all_reduce [ List.hd names ] x; loop ];
          results = loop.Op.results;
        }
      in
      let peers = Collective_lint.peers mesh in
      let label what = Printf.sprintf "%s on %s" what (Mesh.to_string mesh) in
      check_clean (label "mesh groups") (Collective_lint.func ~mesh f);
      (* One CL004 per replica-group class (the function has two). *)
      let planted what wording group =
        let diags = Collective_lint.func ~group ~mesh f in
        Alcotest.(check (list string)) (label what) [ "CL004"; "CL004" ]
          (codes diags);
        List.iter
          (fun (d : Diagnostic.t) ->
            if not (contains d.Diagnostic.message wording) then
              Alcotest.failf "%s: %S lacks %S" (label what) d.Diagnostic.message
                wording)
          diags
      in
      planted "group omits itself" "does not include itself" (fun a d ->
          List.filter (( <> ) d) (peers a d));
      planted "group names an outside device" "outside the" (fun a d ->
          peers a d @ [ n ]);
      planted "members disagree" "different replica groups" (fun a d ->
          if d = n - 1 then [ d ] else peers a d))
    [ [ ("a", 2); ("b", 2) ]; [ ("batch", 32); ("model", 16) ] ]

(* {1 The real pipeline verifies clean} *)

let check_jit_clean name mesh (step : Models.Train.step) tactics =
  let r = jit ~ties:step.Models.Train.ties mesh step.Models.Train.func tactics in
  check_clean (name ^ " staged") (Analysis.check_staged r.Schedule.staged);
  check_clean (name ^ " fused") (Analysis.check_program r.Schedule.program);
  check_clean (name ^ " unfused")
    (Analysis.check_program
       (Lower.lower ~ties:step.Models.Train.ties ~fuse:false r.Schedule.staged))

let test_mlp_clean () =
  let mesh = Mesh.create [ ("batch", 4); ("model", 2) ] in
  let step = Models.Train.training_step (Models.Mlp.forward Models.Mlp.default) in
  check_jit_clean "mlp" mesh step
    [
      Strategies.bp ~axis:"batch" ~inputs:[ "x"; "target" ] ();
      Strategies.transformer_mp ~axis:"model";
    ]

(* 512 devices: the lint checks every replica-group class and finds the
   real groups sound. *)
let test_mlp_512_devices () =
  let module Zoo = Partir_serve.Zoo in
  let p = Zoo.prepare "mlp" in
  let mesh = Zoo.parse_mesh "batch=32,model=16" in
  let r =
    jit ~ties:p.Zoo.ties mesh p.Zoo.func
      (Zoo.tactics_of p Partir_sim.Hardware.tpu_v3 16 "bp,mp")
  in
  let program = r.Schedule.program in
  check_clean "mlp bp,mp on 32x16" (Collective_lint.program program);
  let calls = ref 0 in
  let group axes d =
    incr calls;
    Collective_lint.peers mesh axes d
  in
  check_clean "mlp bp,mp on 32x16 (counted)"
    (Collective_lint.func ~group ~mesh program.Lower.func);
  if !calls < 512 then
    Alcotest.failf "class check asked for %d groups, expected >= 512" !calls

let test_transformer_clean () =
  let mesh = Mesh.create [ ("batch", 4); ("model", 2) ] in
  let cfg = { Models.Transformer.tiny with layers = 2; batch = 4; heads = 2 } in
  let step = Models.Train.training_step (Models.Transformer.forward cfg) in
  check_jit_clean "t-tiny" mesh step
    [
      Strategies.bp ~axis:"batch" ~inputs:[ "tokens"; "targets" ] ();
      Strategies.transformer_mp ~axis:"model";
    ]

(* Property: every partcheck-generated case verifies cleanly at every
   pipeline stage, before and after fusion. *)
let test_partcheck_cases_verify () =
  for seed = 0 to 24 do
    let c = Gen.generate ~seed in
    let func, mesh, pool = Gen.build c in
    check_clean (Printf.sprintf "seed %d source" seed) (Verify.func func);
    let staged = Staged.of_func mesh func in
    let _applied, _skipped = Oracle.apply_schedule c staged pool in
    check_clean (Printf.sprintf "seed %d staged" seed) (Analysis.check_staged staged);
    let p0 = Lower.lower ~fuse:false staged in
    let p1 = { p0 with Lower.func = Fusion.run p0.Lower.func } in
    check_clean (Printf.sprintf "seed %d unfused" seed) (Analysis.check_program p0);
    check_clean (Printf.sprintf "seed %d fused" seed) (Analysis.check_program p1)
  done

(* {1 Debug-mode hooks} *)

let test_debug_hooks () =
  Analysis.set_debug_checks true;
  Fun.protect
    ~finally:(fun () -> Analysis.set_debug_checks false)
    (fun () ->
      (* A legal pipeline run must pass with the hooks armed... *)
      let mesh = Mesh.create [ ("a", 2) ] in
      let t = staged_matmul ~mesh ~m:4 ~k:4 in
      let x = Option.get (Staged.find_value t "x") in
      ignore (Staged.tile t ~value:x ~dim:0 ~axis:"a");
      ignore (Propagate.run t);
      ignore (Lower.lower t);
      (* ...and a corrupted nest must raise Check_error from the hook of
         the next action. *)
      let corrupted () =
        let t = staged_matmul ~mesh ~m:4 ~k:4 in
        (match t.Staged.body with
        | [ sop ] ->
            sop.Staged.nest <-
              [
                {
                  Action.axis = "zz";
                  operand_dims = [| Some 0; None |];
                  result_actions = [| Action.Tile 0 |];
                };
              ]
        | _ -> Alcotest.fail "unexpected staged body");
        t
      in
      let t2 = corrupted () in
      (match Staged.tile t2 ~value:(Option.get (Staged.find_value t2 "y")) ~dim:0 ~axis:"a" with
      | _ -> Alcotest.fail "debug hook did not fire on a corrupted nest"
      | exception Analysis.Check_error diags ->
          check_has_code "hook diagnostics" "S001" diags);
      (* A multi-action batch runs the hook once, after it is committed. *)
      let t3 = corrupted () in
      let find = Staged.find_value t3 in
      let batch =
        [
          Staged.Tile { value = Option.get (find "y"); dim = 0; axis = "a" };
          Staged.Atomic { value = Option.get (find "x"); axis = "a" };
        ]
      in
      let armed = !Staged.debug_hook and calls = ref 0 in
      Staged.debug_hook :=
        (fun t ->
          incr calls;
          Alcotest.(check int) "both seeds committed" 2
            (List.length t.Staged.body - 1);
          armed t);
      Fun.protect
        ~finally:(fun () -> Staged.debug_hook := armed)
        (fun () ->
          match Staged.apply t3 batch with
          | _ -> Alcotest.fail "debug hook did not fire on a corrupted batch"
          | exception Analysis.Check_error diags ->
              check_has_code "batch hook diagnostics" "S001" diags);
      Alcotest.(check int) "hook ran once per batch" 1 !calls)

let () =
  Alcotest.run "verify"
    [
      ( "verify-hlo",
        [
          Alcotest.test_case "wrong result shape" `Quick test_wrong_result_shape;
          Alcotest.test_case "dtype mismatch" `Quick test_dtype_mismatch;
          Alcotest.test_case "select predicate" `Quick test_select_pred_dtype;
          Alcotest.test_case "collective axes" `Quick test_collective_axis_checks;
        ] );
      ( "verify-staged",
        [
          Alcotest.test_case "axis tiled twice" `Quick test_axis_tiled_twice;
          Alcotest.test_case "non-divisible tile" `Quick test_non_divisible_tile;
          Alcotest.test_case "unknown nest axis" `Quick test_unknown_nest_axis;
        ] );
      ( "shardcheck",
        [
          Alcotest.test_case "operand layout mismatch" `Quick
            test_operand_layout_mismatch;
          Alcotest.test_case "all_reduce without partial" `Quick
            test_all_reduce_without_partial;
          Alcotest.test_case "output layout mismatch" `Quick
            test_output_layout_mismatch;
          Alcotest.test_case "gather not suffix" `Quick test_gather_not_suffix;
          Alcotest.test_case "double slice" `Quick test_double_slice;
        ] );
      ( "collective-lint",
        [
          Alcotest.test_case "swapped all_reduce order" `Quick
            test_swapped_all_reduce_order;
          Alcotest.test_case "replica group missing device" `Quick
            test_replica_group_missing_device;
          Alcotest.test_case "peer exhausted" `Quick test_peer_exhausted;
          Alcotest.test_case "bad collective axes" `Quick test_collective_bad_axis;
          Alcotest.test_case "planted group functions" `Quick
            test_planted_group_functions;
        ] );
      ( "pipeline-clean",
        [
          Alcotest.test_case "mlp bp+mp" `Quick test_mlp_clean;
          Alcotest.test_case "mlp bp+mp on 512 devices" `Quick
            test_mlp_512_devices;
          Alcotest.test_case "transformer bp+mp" `Quick test_transformer_clean;
          Alcotest.test_case "partcheck cases" `Slow test_partcheck_cases_verify;
          Alcotest.test_case "debug hooks" `Quick test_debug_hooks;
        ] );
    ]
