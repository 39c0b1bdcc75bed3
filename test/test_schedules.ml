(* Integration tests: the paper's schedules on reduced-size models.
   Collective-count structure must match Table 2's per-parameter /
   per-layer formulas; numeric equivalence is checked end-to-end through
   the lockstep SPMD interpreter. *)

open Partir_tensor
open Partir_hlo
module Mesh = Partir_mesh.Mesh
module Schedule = Partir_schedule.Schedule
module Strategies = Partir_strategies.Strategies
module Census = Partir_spmd.Census
module Train = Partir_models.Train
module Transformer = Partir_models.Transformer
module Unet = Partir_models.Unet
module Gns = Partir_models.Gns
module Mlp = Partir_models.Mlp
module Spmd_interp = Partir_spmd.Spmd_interp

(* A transformer config small enough to interpret but with the full block
   structure. Axis sizes must divide batch and head counts. *)
let tcfg = { Transformer.tiny with layers = 2; batch = 4; heads = 2 }
let mesh2d () = Mesh.create [ ("batch", 2); ("model", 2) ]

let t_step = lazy (Train.training_step (Transformer.forward tcfg))

let transformer_inputs = [ "tokens"; "targets" ]

let census schedule =
  let step = Lazy.force t_step in
  let r = Schedule.jit ~ties:step.Train.ties (mesh2d ()) step.Train.func schedule in
  (Census.of_program r.Schedule.program, r)

let n_params = Transformer.param_count tcfg
let n_big = (4 * tcfg.Transformer.layers) + 1

let test_t_bp () =
  let c, r = census [ Strategies.bp ~axis:"batch" ~inputs:transformer_inputs () ] in
  List.iter
    (fun (rep : Schedule.tactic_report) ->
      Alcotest.(check int)
        ("no conflicts in " ^ rep.Schedule.label)
        0
        (List.length rep.Schedule.conflicts))
    r.Schedule.reports;
  (* One AR per parameter gradient + one for the loss (paper §7.3). *)
  Alcotest.(check int) "BP all_reduce" (n_params + 1) c.Census.all_reduce;
  Alcotest.(check int) "BP all_gather" 0 c.Census.all_gather;
  Alcotest.(check int) "BP reduce_scatter" 0 c.Census.reduce_scatter

let test_t_mp () =
  let c, _ = census [ Strategies.transformer_mp ~axis:"model" ] in
  (* Megatron: 4 AR per block (2 forward + 2 backward), no per-param AR. *)
  Alcotest.(check int) "MP all_reduce" (4 * tcfg.Transformer.layers)
    c.Census.all_reduce;
  Alcotest.(check int) "MP reduce_scatter" 0 c.Census.reduce_scatter

let test_t_bp_mp () =
  let c, _ =
    census
      [
        Strategies.bp ~axis:"batch" ~inputs:transformer_inputs ();
        Strategies.transformer_mp ~axis:"model";
      ]
  in
  Alcotest.(check int) "BP+MP all_reduce"
    (n_params + 1 + (4 * tcfg.Transformer.layers))
    c.Census.all_reduce

let test_t_bp_mp_z2 () =
  let c, _ =
    census
      [
        Strategies.bp ~axis:"batch" ~inputs:transformer_inputs ();
        Strategies.transformer_mp ~axis:"model";
        Strategies.transformer_z2 ~axis:"batch";
      ]
  in
  (* Z2: the big-weight gradient ARs become reduce_scatters (the tied
     embedding's two gradient branches each scatter: n_big + 1) and the
     updated (replicated) parameters are gathered once each. *)
  Alcotest.(check int) "Z2 reduce_scatter" (n_big + 1) c.Census.reduce_scatter;
  Alcotest.(check int) "Z2 all_gather" n_big c.Census.all_gather;
  Alcotest.(check int) "Z2 all_reduce"
    (n_params + 1 + (4 * tcfg.Transformer.layers) - n_big)
    c.Census.all_reduce

let test_t_bp_mp_z3 () =
  let c, _ =
    census
      [
        Strategies.bp ~axis:"batch" ~inputs:transformer_inputs ();
        Strategies.transformer_mp ~axis:"model";
        Strategies.transformer_z3 ~axis:"batch";
      ]
  in
  Alcotest.(check int) "Z3 reduce_scatter" (n_big + 1) c.Census.reduce_scatter;
  (* Z3 gathers parameters at each use point: two per weight plus a third
     for the tied embedding (matching the paper's 259 = 2*129 + 1). *)
  Alcotest.(check int) "Z3 all_gather" ((2 * n_big) + 1) c.Census.all_gather

let test_t_equivalence () =
  (* The partitioned training step computes the same values. *)
  let step = Lazy.force t_step in
  let r =
    Schedule.jit ~ties:step.Train.ties (mesh2d ()) step.Train.func
      [
        Strategies.bp ~axis:"batch" ~inputs:transformer_inputs ();
        Strategies.transformer_mp ~axis:"model";
        Strategies.transformer_z3 ~axis:"batch";
      ]
  in
  let st = Random.State.make [| 7 |] in
  let args =
    List.map
      (fun (p : Value.t) ->
        let is_int = Dtype.is_integer p.Value.ty.Value.dtype in
        (* Adam's second moment must be non-negative. *)
        let non_negative = Filename.check_suffix p.Value.name ".v" in
        Literal.init p.Value.ty.Value.dtype p.Value.ty.Value.shape (fun _ ->
            if is_int then float_of_int (Random.State.int st tcfg.Transformer.vocab)
            else
              let x = Random.State.float st 0.2 -. 0.1 in
              if non_negative then Float.abs x else x))
      step.Train.func.Func.params
  in
  let reference = Interp.run step.Train.func args in
  let spmd = Spmd_interp.run r.Schedule.program args in
  List.iteri
    (fun i (a, b) ->
      Alcotest.(check bool)
        (Printf.sprintf "result %d matches (delta %g)" i
           (Literal.max_abs_diff a b))
        true
        (Literal.max_abs_diff a b < 1e-3))
    (List.combine reference spmd)

(* Plan digests pinned bit for bit: a change to how tactics are seeded,
   propagated or lowered that moves any of these is a plan change, not a
   refactor. *)
let test_golden_digests () =
  let module Zoo = Partir_serve.Zoo in
  List.iter
    (fun (model, schedule, mesh, expected) ->
      let p = Zoo.prepare model in
      let r =
        Schedule.jit ~ties:p.Zoo.ties (Zoo.parse_mesh mesh) p.Zoo.func
          (Zoo.tactics_of p Partir_sim.Hardware.tpu_v3 16 schedule)
      in
      Alcotest.(check string)
        (Printf.sprintf "%s %s on %s" model schedule mesh)
        expected
        (Partir_serve.Cache.plan_digest r.Schedule.program))
    [
      ("unet-small", "bp,z3", "batch=2,model=2", "65515d0a200627d67c09c571072c0893");
      ("t32-small", "bp,mp,z3", "batch=4,model=2", "5b6d4002dbade453df20a931c26f316a");
      ("it32-small", "bp,mp", "batch=4,model=2", "983534b81f7da1fd3a127e9153df9754");
      ("gns-small", "es", "batch=4", "299c972810ce3b682175292f3dd85ad4");
    ]

(* Each tactic's report lowers the module once and the last one is the
   result: k >= 1 tactics lower exactly k times (once under
   [single_tactic]), a tactic-free jit once. The golden digests above pin
   that the reused program is the plan. *)
let test_one_lowering_per_tactic () =
  let step = Lazy.force t_step in
  let tactics =
    [
      Strategies.bp ~axis:"batch" ~inputs:transformer_inputs ();
      Strategies.transformer_mp ~axis:"model";
      Strategies.transformer_z3 ~axis:"batch";
    ]
  in
  let module Lower = Partir_spmd.Lower in
  let lowerings ?single_tactic tactics =
    let armed = !Lower.debug_hook and calls = ref 0 in
    Lower.debug_hook :=
      (fun p ->
        incr calls;
        armed p);
    Fun.protect
      ~finally:(fun () -> Lower.debug_hook := armed)
      (fun () ->
        ignore
          (Schedule.jit ?single_tactic ~ties:step.Train.ties (mesh2d ())
             step.Train.func tactics));
    !calls
  in
  for k = 0 to List.length tactics do
    let calls = lowerings (List.filteri (fun i _ -> i < k) tactics) in
    Alcotest.(check int) (Printf.sprintf "%d tactics" k) (max 1 k) calls
  done;
  Alcotest.(check int) "single tactic" 1 (lowerings ~single_tactic:true tactics)

let () =
  Alcotest.run "schedules"
    [
      ( "transformer",
        [
          Alcotest.test_case "BP" `Quick test_t_bp;
          Alcotest.test_case "MP" `Quick test_t_mp;
          Alcotest.test_case "BP+MP" `Quick test_t_bp_mp;
          Alcotest.test_case "BP+MP+Z2" `Quick test_t_bp_mp_z2;
          Alcotest.test_case "BP+MP+Z3" `Quick test_t_bp_mp_z3;
          Alcotest.test_case "equivalence" `Quick test_t_equivalence;
        ] );
      ( "plans",
        [
          Alcotest.test_case "golden digests" `Quick test_golden_digests;
          Alcotest.test_case "one lowering per tactic" `Quick
            test_one_lowering_per_tactic;
        ] );
    ]
