open Partir_tensor
open Partir_hlo
module Mesh = Partir_mesh.Mesh
module Staged = Partir_core.Staged
module Propagate = Partir_core.Propagate
module Temporal = Partir_temporal.Temporal
module Lower = Partir_spmd.Lower
module Fusion = Partir_spmd.Fusion
module Census = Partir_spmd.Census
module Spmd_interp = Partir_spmd.Spmd_interp
module Plan = Partir_plan.Plan
module Gspmd = Partir_gspmd.Gspmd
module Hardware = Partir_sim.Hardware
module Cost_model = Partir_sim.Cost_model
module Engine = Partir_sim.Engine
module Auto = Partir_auto.Auto
module Mem_check = Partir_analysis.Mem_check

type failure = { label : string; detail : string }

type info = { applied : int; skipped : int; collectives : int }

type verdict = Pass of info | Fail of failure

exception Mismatch of failure

let failf label fmt =
  Format.kasprintf (fun detail -> raise (Mismatch { label; detail })) fmt

(* Relative tolerance: generated programs rescale matmuls and reductions,
   so values stay O(1)-ish, but add chains and loop carries still grow;
   scale the bound by the reference magnitude. *)
let tol = 1e-4

let max_abs (l : Literal.t) =
  List.fold_left (fun acc x -> Float.max acc (Float.abs x)) 0.0
    (Literal.to_float_list l)

let check_outputs label ~reference got =
  if List.length reference <> List.length got then
    failf label "expected %d outputs, got %d" (List.length reference)
      (List.length got);
  List.iteri
    (fun i (r, g) ->
      let diff = Literal.max_abs_diff r g in
      let bound = tol *. (1.0 +. max_abs r) in
      if not (diff <= bound) then
        failf label "output %d differs by %g (bound %g)" i diff bound)
    (List.combine reference got)

let comm_total (c : Census.t) =
  c.Census.all_gather + c.Census.all_reduce + c.Census.reduce_scatter
  + c.Census.all_to_all

let rec collect_collectives acc (ops : Op.t list) =
  List.fold_left
    (fun acc (op : Op.t) ->
      let acc =
        match op.Op.region with
        | Some r -> collect_collectives acc r.Op.body
        | None -> acc
      in
      match op.Op.kind with
      | Op.All_slice _ -> acc
      | k when Cost_model.is_collective k -> op :: acc
      | _ -> acc)
    acc ops

let rel_close a b =
  Float.abs (a -. b)
  <= 1e-9 *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

let hw = Hardware.tpu_v3

(* {1 Tactic application} *)

(* The schedule's tile/atomic entries as seeding actions on the pool. *)
let seed_actions (c : Gen.t) pool sched =
  let npool = List.length pool in
  let target t = List.nth pool (Gen.pos t npool) in
  List.filter_map
    (function
      | Gen.Tile { target = t; dim; axis } ->
          Some
            (Staged.Tile
               { value = target t; dim = Gen.pos dim 2; axis = Gen.axis_of c axis })
      | Gen.Atomic { target = t; axis } ->
          Some (Staged.Atomic { value = target t; axis = Gen.axis_of c axis })
      | Gen.Auto _ -> None)
    sched

let apply_schedule (c : Gen.t) staged pool =
  let applied = ref 0 and skipped = ref 0 in
  let attempt f = try f (); incr applied with Staged.Action_error _ -> incr skipped in
  List.iter
    (fun tac ->
      (match tac with
      | Gen.Tile _ | Gen.Atomic _ ->
          attempt (fun () ->
              ignore (Staged.apply staged (seed_actions c pool [ tac ])))
      | Gen.Auto { budget; mcts; axes } ->
          let axes =
            match axes with
            | [] -> List.map fst c.mesh
            | l -> List.map (Gen.axis_of c) l
          in
          let opts =
            {
              Auto.default_options with
              budget = max 1 budget;
              seed = c.seed lxor 0x5ca1ab;
              parallelism = 1;
            }
          in
          let search = if mcts then Auto.mcts_search else Auto.greedy_search in
          attempt (fun () -> ignore (search opts staged ~axes)));
      ignore (Propagate.run staged))
    c.sched;
  ignore (Propagate.run staged);
  (!applied, !skipped)

(* Batched seeding equals one-at-a-time seeding: the schedule's legal
   tile/atomic actions applied as one [Staged.apply] batch print the same
   module as all of them applied one per call (illegal ones skipped); and
   when some action is illegal, the whole list as one batch raises and
   leaves the module untouched. *)
let check_batch_seeding (c : Gen.t) mesh func pool =
  let actions = seed_actions c pool c.sched in
  let one = Staged.of_func mesh func in
  let legal =
    List.filter
      (fun a ->
        match Staged.apply one [ a ] with
        | _ -> true
        | exception Staged.Action_error _ -> false)
      actions
  in
  let batch = Staged.of_func mesh func in
  ignore (Staged.apply batch legal);
  if Staged.to_string batch <> Staged.to_string one then
    failf "batch-seeding" "%d actions as one batch differ from one at a time"
      (List.length legal);
  if List.length legal < List.length actions then begin
    let fresh = Staged.of_func mesh func in
    let before = Staged.to_string fresh in
    match Staged.apply fresh actions with
    | _ -> failf "batch-seeding" "a batch with an illegal action applied"
    | exception Staged.Action_error _ ->
        if Staged.to_string fresh <> before then
          failf "batch-seeding" "a rejected batch changed the module"
  end

(* Input annotations the GSPMD baseline can mirror: the schedule's tiles
   on function parameters, kept only if they apply cleanly in sequence on
   a scratch staging (GSPMD applies all annotations at once). *)
let gspmd_annotations (c : Gen.t) mesh func npool =
  let annos =
    List.filter_map
      (function
        | Gen.Tile { target; dim; axis } when Gen.pos target npool < c.params ->
            Some
              {
                Gspmd.name = Printf.sprintf "p%d" (Gen.pos target npool);
                dim = Gen.pos dim 2;
                axis = Gen.axis_of c axis;
              }
        | _ -> None)
      c.sched
  in
  let annos =
    List.rev
      (List.fold_left
         (fun acc a -> if List.mem a acc then acc else a :: acc)
         [] annos)
  in
  let scratch = Staged.of_func mesh func in
  List.filter
    (fun (a : Gspmd.annotation) ->
      match Staged.find_value scratch a.Gspmd.name with
      | None -> false
      | Some v -> (
          try
            ignore (Staged.tile scratch ~value:v ~dim:a.Gspmd.dim ~axis:a.Gspmd.axis);
            true
          with Staged.Action_error _ -> false))
    annos

(* {1 Cost-model invariants} *)

let check_cost_invariants mesh (p0 : Lower.program) (p1 : Lower.program) =
  let c0 = comm_total (Census.of_program p0)
  and c1 = comm_total (Census.of_program p1) in
  if c1 > c0 then
    failf "fusion-collective-count" "fused program has %d comm collectives, unfused %d"
      c1 c0;
  let refused = Census.of_func (Fusion.run p1.Lower.func) in
  if refused <> Census.of_func p1.Lower.func then
    failf "fusion-idempotent"
      "second fusion pass still changes the program: %s -> %s"
      (Census.to_string (Census.of_func p1.Lower.func))
      (Census.to_string refused);
  let w0 = Cost_model.run_walk Cost_model.analytic hw p0
  and w1 = Cost_model.run_walk Cost_model.analytic hw p1 in
  if w1.Cost_model.comm_ms > (w0.Cost_model.comm_ms *. (1. +. 1e-9)) +. 1e-12
  then
    failf "fusion-comm-time" "fused comm %.9f ms > unfused comm %.9f ms"
      w1.Cost_model.comm_ms w0.Cost_model.comm_ms;
  (* Per-hop latency floor: a ring stage over an axis of size s crosses
     2(s-1) links for all_reduce (reduce-scatter sweep + all-gather
     sweep) and (s-1) otherwise, and every hop pays the link latency —
     so a collective moving any bytes at all can never be cheaper than
     its total hop count times the latency. *)
  let latency = hw.Hardware.link_latency_us *. 1e-6 in
  List.iter
    (fun (p : Lower.program) ->
      List.iter
        (fun (op : Op.t) ->
          let hops_per a =
            let s = Mesh.axis_size mesh a in
            match op.Op.kind with
            | Op.All_reduce _ -> 2 * (s - 1)
            | _ -> s - 1
          in
          let hops =
            List.fold_left
              (fun acc a -> acc + hops_per a)
              0
              (Cost_model.collective_group_axes op.Op.kind)
          in
          let bytes =
            match op.Op.operands with
            | v :: _ -> Value.size_in_bytes v
            | [] -> 0
          in
          let t = Cost_model.comm_time Cost_model.analytic hw mesh op in
          if bytes > 0 && t +. 1e-15 < float_of_int hops *. latency then
            failf "comm-latency-floor"
              "%s traversing %d ring hops modeled at %.3g s < %d x link \
               latency %.3g s"
              (Op.kind_name op.Op.kind) hops t hops latency)
        (collect_collectives [] p.Lower.func.Func.body))
    [ p0; p1 ];
  (* Overlap invariants: the schedule-derived critical path can never
     beat compute alone nor exceed the barrier bound (sync = compute +
     full comm); exposed comm is a sub-part of total comm; and the
     schedule only re-times execution — the nominal compute/comm totals
     must not depend on it. *)
  List.iter
    (fun (p : Lower.program) ->
      List.iter
        (fun profile ->
          let async = Cost_model.run_walk profile hw p in
          let sync = Cost_model.run_walk (Cost_model.sync profile) hw p in
          if
            async.Cost_model.runtime_ms
            > (sync.Cost_model.runtime_ms *. (1. +. 1e-9)) +. 1e-12
          then
            failf "overlap-bound"
              "async critical path %.9f ms > barrier bound %.9f ms"
              async.Cost_model.runtime_ms sync.Cost_model.runtime_ms;
          if
            async.Cost_model.runtime_ms
            < (async.Cost_model.compute_ms *. (1. -. 1e-9)) -. 1e-12
          then
            failf "overlap-bound"
              "async critical path %.9f ms < compute alone %.9f ms"
              async.Cost_model.runtime_ms async.Cost_model.compute_ms;
          List.iter
            (fun (what, a, b) ->
              if not (rel_close a b) then
                failf "overlap-nominal-totals"
                  "async %s %.12f ms != sync %s %.12f ms" what a what b)
            [
              ("compute", async.Cost_model.compute_ms, sync.Cost_model.compute_ms);
              ("comm", async.Cost_model.comm_ms, sync.Cost_model.comm_ms);
            ];
          let ov = Cost_model.walk_overlap profile hw p in
          if
            ov.Cost_model.exposed_comm_ms
            > (ov.Cost_model.total_comm_ms *. (1. +. 1e-9)) +. 1e-12
          then
            failf "overlap-exposed"
              "exposed comm %.9f ms > total comm %.9f ms"
              ov.Cost_model.exposed_comm_ms ov.Cost_model.total_comm_ms)
        [ Cost_model.analytic; Cost_model.measured ])
    [ p0; p1 ];
  List.iter
    (fun (p : Lower.program) ->
      List.iter
        (fun profile ->
          let walk = Cost_model.run_walk profile hw p in
          let eng = Engine.estimate profile hw p in
          List.iter
            (fun (what, a, b) ->
              if not (rel_close a b) then
                failf "engine-parity" "walk %s %.12f ms != engine %.12f ms"
                  what a b)
            [
              ("runtime", walk.Cost_model.runtime_ms, eng.Cost_model.runtime_ms);
              ("compute", walk.Cost_model.compute_ms, eng.Cost_model.compute_ms);
              ("comm", walk.Cost_model.comm_ms, eng.Cost_model.comm_ms);
            ])
        [ Cost_model.analytic; Cost_model.measured ])
    [ p0; p1 ];
  c1

(* {1 Memory invariants} *)

(* Soundness of the fourth analysis pass against the executor: on every
   generated program, the static Mem_check arena bound (8 B/element over
   what the plan allocates from its slot arena) must dominate the
   measured live-slot peak of the compiled plan; and fusion — which only
   removes, merges or narrows collectives — must never increase that
   bound. The monotonicity check runs in the arena currency on purpose:
   the HBM bound models the backend's elementwise fusion (single-use
   results are free), and merging collectives can change use counts, so
   a value that was free before fusion may materialize after it — the
   discounted peak is not monotone, the discount-free one is. *)
let check_memory_invariants (p0 : Lower.program) (p1 : Lower.program) ~sp1 =
  let r0 = Mem_check.analyze p0 and r1 = Mem_check.analyze p1 in
  List.iter
    (fun (label, (r : Mem_check.report), measured) ->
      if r.Mem_check.arena_bound_bytes +. 0.5 < float_of_int measured then
        failf label
          "static arena bound %.0f B < measured plan live-slot peak %d B"
          r.Mem_check.arena_bound_bytes measured)
    [
      ("mem-bound-unfused", r0, Plan.Spmd.peak_bytes (Plan.Spmd.compile p0));
      ("mem-bound-fused", r1, Plan.Spmd.peak_bytes sp1);
    ];
  if
    r1.Mem_check.arena_bound_bytes
    > r0.Mem_check.arena_bound_bytes *. (1. +. 1e-9)
  then
    failf "fusion-mem-peak"
      "fused static arena bound %.0f B > unfused %.0f B"
      r1.Mem_check.arena_bound_bytes r0.Mem_check.arena_bound_bytes

(* {1 The oracle} *)

(* Static-analysis invariant: every staged module and every lowered
   program the pipeline produces must verify with zero diagnostics —
   catches IR inconsistencies the differential executors can only see
   after an expensive run (or not at all, when both sides are wrong the
   same way). *)
let check_verified label diags =
  match Partir_analysis.Diagnostic.errors diags with
  | [] -> ()
  | errs ->
      failf label "%s" (Partir_analysis.Diagnostic.list_to_string errs)

(* Collective_lint's replica-group class check reports exactly what the
   per-device rendezvous replay it stands in for reports. *)
let check_lint_classes (programs : Lower.program list) =
  let module Lint = Partir_analysis.Collective_lint in
  let show = Partir_analysis.Diagnostic.list_to_string in
  List.iter
    (fun (p : Lower.program) ->
      let mesh = p.Lower.mesh and f = p.Lower.func in
      let classes = Lint.func ~mesh f and replay = Lint.replay ~mesh f in
      if classes <> replay then
        failf "lint-classes" "class check:\n%s\nreplay:\n%s" (show classes)
          (show replay))
    programs

let run_case_exn (c : Gen.t) =
  let func, mesh, pool = Gen.build c in
  let args = Gen.inputs c func in
  let reference = Interp.run func args in
  check_outputs "plan" ~reference
    (Array.to_list (Plan.execute (Plan.compile func) (Array.of_list args)));
  let staged = Staged.of_func mesh func in
  let applied, skipped = apply_schedule c staged pool in
  check_batch_seeding c mesh func pool;
  check_verified "verifier-staged" (Partir_analysis.Analysis.check_staged staged);
  check_outputs "temporal" ~reference (Temporal.run staged args);
  let p0 = Lower.lower ~fuse:false staged in
  let p1 = { p0 with Lower.func = Fusion.run p0.Lower.func } in
  check_verified "verifier-spmd" (Partir_analysis.Analysis.check_program p0);
  check_verified "verifier-fused" (Partir_analysis.Analysis.check_program p1);
  check_lint_classes [ p0; p1 ];
  check_outputs "spmd-unfused" ~reference (Spmd_interp.run p0 args);
  check_outputs "spmd-fused" ~reference (Spmd_interp.run p1 args);
  let sp1 = Plan.Spmd.compile p1 in
  let async_out = Plan.Spmd.run sp1 args in
  check_outputs "plan-spmd" ~reference async_out;
  (* Async issue/wait execution must be BIT-identical to barrier-mode
     execution: the schedule moves transfers, never values. *)
  let sync_out = Plan.Spmd.run (Plan.Spmd.compile ~async:false p1) args in
  if List.length async_out <> List.length sync_out then
    failf "plan-async-parity" "async %d outputs, sync %d"
      (List.length async_out) (List.length sync_out);
  List.iteri
    (fun i (a, s) ->
      let d = Literal.max_abs_diff a s in
      if d <> 0.0 then
        failf "plan-async-parity"
          "output %d: async differs from barrier-mode by %g (must be 0)" i d)
    (List.combine async_out sync_out);
  check_memory_invariants p0 p1 ~sp1;
  (match gspmd_annotations c mesh func (List.length pool) with
  | annos -> (
      match Gspmd.partition ~variant:`No_internal mesh func annos with
      | pg, _conflicts -> check_outputs "gspmd" ~reference (Spmd_interp.run pg args)
      | exception Staged.Action_error _ -> ()));
  let collectives = check_cost_invariants mesh p0 p1 in
  { applied; skipped; collectives }

let run_case c =
  match run_case_exn c with
  | info -> Pass info
  | exception Mismatch f -> Fail f
  | exception e ->
      Fail { label = "exception"; detail = Printexc.to_string e }

let fails c = match run_case c with Fail _ -> true | Pass _ -> false
