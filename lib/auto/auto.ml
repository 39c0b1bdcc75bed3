open Partir_tensor
open Partir_hlo
open Partir_core
module Schedule = Partir_schedule.Schedule
module Cost_model = Partir_sim.Cost_model
module Hardware = Partir_sim.Hardware

module Stats = struct
  type t = {
    wall_seconds : float;
    iterations : int;
    evaluations : int;
    failed_evaluations : int;
        (* pipeline runs that raised (illegal action combination, lowering
           or semantics failure) and were scored as infeasible *)
    failure_kinds : (string * int) list;
        (* infeasible-rollout counts by structured cause ("action",
           "spmd", "temporal", "type", "verify", ...), most common first *)
    infeasible_oom : int;
        (* rollouts whose static Mem_check peak exceeded the memory limit
           and were hard-rejected (scored infinity); counted separately
           from [failed_evaluations] — an OOM schedule is a legal program
           that does not fit, not a pipeline failure *)
    cache_lookups : int;
    cache_hits : int;
    domains_used : int;
    baseline_cost : float;
    best_cost : float;
    trajectory : (int * float) list;
    interrupted : bool;
        (* the search stopped early ([should_stop] fired at a budget
           checkpoint); the applied schedule is the best-so-far vector, a
           valid but possibly sub-optimal answer *)
    total_comm_ms : float;
        (* analytic communication time of the applied (best) schedule *)
    exposed_comm_ms : float;
        (* the part of [total_comm_ms] left on the critical path after
           issue/wait overlap scheduling — 0 when fully hidden *)
  }

  let pp ppf s =
    Format.fprintf ppf
      "%d iters, %d evals (%d/%d cache hits, %d infeasible%s%s), %d domain%s, \
       %.2fs, best %.2fms (baseline %.2fms)%s%s"
      s.iterations s.evaluations s.cache_hits s.cache_lookups
      s.failed_evaluations
      (if s.infeasible_oom > 0 then
         Printf.sprintf ", %d OOM-rejected" s.infeasible_oom
       else "")
      (match s.failure_kinds with
      | [] -> ""
      | kinds ->
          ": "
          ^ String.concat ", "
              (List.map (fun (k, n) -> Printf.sprintf "%d %s" n k) kinds))
      s.domains_used
      (if s.domains_used = 1 then "" else "s")
      s.wall_seconds s.best_cost s.baseline_cost
      (if s.total_comm_ms > 0. then
         Printf.sprintf ", comm %.2fms (%.2fms exposed)" s.total_comm_ms
           s.exposed_comm_ms
       else "")
      (if s.interrupted then ", INTERRUPTED (best-so-far)" else "")

  let to_string s = Format.asprintf "%a" pp s
end

type options = {
  hardware : Hardware.t;
  budget : int;
  memory_limit_bytes : float option;
  seed : int;
  max_positions : int;
  parallelism : int;
  memoize : bool;
  on_stats : (Stats.t -> unit) option;
  table : (string, float) Hashtbl.t option;
      (* externally owned transposition table (decision-vector key ->
         cost). When provided (and [memoize]), the search reads and fills
         it in place instead of a private table, so costs persist across
         searches — the compile server saves/loads these across process
         lifetimes. Entries are only valid for the same staged module,
         mesh, axes and max_positions. *)
  should_stop : (unit -> bool) option;
      (* deadline/cancellation hook, polled at budget-checkpoint
         granularity (between rollout batches, never inside the pipeline).
         When it returns [true] the search stops, applies the best-so-far
         vector, and reports [Stats.interrupted]. *)
}

let default_parallelism () = Partir_parallel.num_domains ()

let default_options =
  {
    hardware = Hardware.tpu_v3;
    budget = 32;
    memory_limit_bytes = None;
    seed = 1;
    max_positions = 24;
    parallelism = default_parallelism ();
    memoize = true;
    on_stats = None;
    table = None;
    should_stop = None;
  }

type decision = Skip | Atomic | Tile of int

exception Infeasible_oom of { peak_bytes : float; limit_bytes : float }

let () =
  Printexc.register_printer (function
    | Infeasible_oom { peak_bytes; limit_bytes } ->
        Some
          (Printf.sprintf
             "Partir_auto.Auto.Infeasible_oom: static peak %.3f GB exceeds \
              memory limit %.3f GB"
             (peak_bytes /. 1e9) (limit_bytes /. 1e9))
    | _ -> None)

let evaluate ?source_flops opts (staged : Staged.t) =
  let program = Partir_spmd.Lower.lower ?source_flops staged in
  let est = Cost_model.run Cost_model.analytic opts.hardware program in
  let limit_bytes =
    Option.value opts.memory_limit_bytes
      ~default:(Hardware.hbm_bytes opts.hardware)
  in
  (* Feasibility gate: the static Mem_check peak (sound upper bound over
     params, activations, loop carries and collective staging) against the
     per-device memory limit. An over-limit schedule is hard-rejected —
     scored infinity by the search — rather than soft-penalized: at paper
     scale OOM is a cliff, not a slowdown. *)
  let report = Partir_analysis.Mem_check.analyze program in
  let peak_bytes = report.Partir_analysis.Mem_check.peak_bytes in
  if peak_bytes > limit_bytes then raise (Infeasible_oom { peak_bytes; limit_bytes });
  est.Cost_model.runtime_ms

(* The decision positions: one per (module input, axis), biggest inputs
   first, interleaving axes per input so the largest inputs keep all their
   axes when the list is capped. [max_positions] caps the TOTAL number of
   positions deterministically. *)
let positions ?(max_positions = max_int) (staged : Staged.t) axes =
  let params =
    List.filter
      (fun (p : Value.t) -> Shape.rank p.Value.ty.Value.shape >= 1)
      staged.Staged.params
    |> List.stable_sort (fun (a : Value.t) (b : Value.t) ->
           Int.compare (Value.size_in_bytes b) (Value.size_in_bytes a))
  in
  let all = List.concat_map (fun p -> List.map (fun a -> (a, p)) axes) params in
  List.filteri (fun i _ -> i < max_positions) all

let options_at (staged : Staged.t) (axis, (p : Value.t)) =
  let size = Partir_mesh.Mesh.axis_size staged.Staged.mesh axis in
  let shape = p.Value.ty.Value.shape in
  let dims =
    List.filter
      (fun d -> shape.(d) mod size = 0 && shape.(d) >= size)
      (List.init (Shape.rank shape) (fun i -> i))
  in
  let dims = List.filteri (fun i _ -> i < 3) dims in
  Skip :: Atomic :: List.map (fun d -> Tile d) dims

(* A decision vector's actions, applied as one batch. *)
let apply_decisions staged poss dv =
  let action i d =
    let axis, value = poss.(i) in
    match d with
    | Skip -> None
    | Atomic -> Some (Staged.Atomic { value; axis })
    | Tile dim -> Some (Staged.Tile { value; dim; axis })
  in
  ignore
    (Staged.apply staged
       (List.filter_map Fun.id (List.mapi action (Array.to_list dv))))

let apply_best base poss decisions =
  apply_decisions base poss decisions;
  ignore (Propagate.run base)

(* ------------------------------------------------------------------ *)
(* Shared evaluation engine: transposition table + domain pool          *)
(* ------------------------------------------------------------------ *)

(* Canonical key of a (possibly partial) decision vector: one char per
   position. Also used for tree-node prefixes in the MCTS. *)
let decision_char = function
  | Skip -> 's'
  | Atomic -> 'a'
  | Tile d -> Char.chr (Char.code 'A' + d) (* ranks are tiny; d < 26 *)

let key_of (dv : decision array) =
  String.init (Array.length dv) (fun i -> decision_char dv.(i))

type eval_ctx = {
  opts : options;
  base : Staged.t;
  poss : (string * Value.t) array;
  source_flops : float;
  cache : (string, float) Hashtbl.t;
  skip_key : string;
  mutable baseline : float;
  mutable lookups : int;
  mutable hits : int;
  mutable evals : int;
  mutable failed : int;
  failed_by_kind : (string, int) Hashtbl.t;
  mutable oom : int;
  mutable domains_used : int;
}

(* Evaluate one complete decision vector against a fresh copy of the base.
   Pure w.r.t. everything but the (atomic) value-id counter, so it is safe
   to call from concurrent domains. A rollout whose action / propagate /
   lower / cost pipeline raises is an infeasible episode, not a search
   crash: it costs infinity and is counted (via the infinite cost) in
   [Stats.failed_evaluations]. Only structured pipeline errors are mapped;
   anything else (Out_of_memory, assert failures) still escapes. *)
let raw_cost opts base poss source_flops (dv : decision array) =
  let staged = Staged.copy base in
  try
    apply_decisions staged poss dv;
    ignore (Propagate.run staged);
    (evaluate ~source_flops opts staged, None)
  with
  | Infeasible_oom _ -> (infinity, Some "oom")
  | Staged.Action_error _ -> (infinity, Some "action")
  | Partir_spmd.Spmd_interp.Spmd_error _ -> (infinity, Some "spmd")
  | Partir_temporal.Temporal.Semantics_error _ -> (infinity, Some "temporal")
  | Op.Type_error _ -> (infinity, Some "type")
  | Func.Verification_error _ -> (infinity, Some "verify")
  | Invalid_argument _ -> (infinity, Some "invalid-argument")
  | Failure _ -> (infinity, Some "failure")

(* Aggregated post-join on the coordinating domain (the hashtable is not
   thread-safe; worker domains only fill disjoint array slots). *)
let count_failures ctx (kinds : string option array) =
  Array.iter
    (function
      | None -> ()
      | Some "oom" -> ctx.oom <- ctx.oom + 1
      | Some k ->
          ctx.failed <- ctx.failed + 1;
          Hashtbl.replace ctx.failed_by_kind k
            (1 + Option.value ~default:0 (Hashtbl.find_opt ctx.failed_by_kind k)))
    kinds

(* Evaluate a batch of uncached vectors, fanning work out over the shared
   [Partir_parallel] domain pool when [parallelism > 1]. Work distribution
   never affects results: costs are deterministic functions of the
   vector. *)
let run_work ctx (work : decision array array) =
  let m = Array.length work in
  let out = Array.make m infinity in
  let kinds = Array.make m None in
  let eval i =
    let c, k = raw_cost ctx.opts ctx.base ctx.poss ctx.source_flops work.(i) in
    out.(i) <- c;
    kinds.(i) <- k
  in
  let p = max 1 (min ctx.opts.parallelism m) in
  ctx.domains_used <- max ctx.domains_used p;
  Partir_parallel.run_tasks ~parallelism:p m eval;
  ctx.evals <- ctx.evals + m;
  count_failures ctx kinds;
  out

(* Costs for a batch of requested vectors, in request order. Requests
   resolve against the transposition table (and against duplicates within
   the same batch); only the remaining unique vectors hit the pipeline. *)
let eval_batch ctx (reqs : (string * decision array) array) =
  let n = Array.length reqs in
  let costs = Array.make n nan in
  let pending : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  let work = ref [] in
  Array.iteri
    (fun i (key, dv) ->
      ctx.lookups <- ctx.lookups + 1;
      if key = ctx.skip_key then begin
        (* Memoized all-Skip baseline: no actions applied, skip the
           propagate/lower/cost pipeline entirely. *)
        ctx.hits <- ctx.hits + 1;
        costs.(i) <- ctx.baseline
      end
      else if ctx.opts.memoize then begin
        match Hashtbl.find_opt ctx.cache key with
        | Some c ->
            ctx.hits <- ctx.hits + 1;
            costs.(i) <- c
        | None ->
            if Hashtbl.mem pending key then ctx.hits <- ctx.hits + 1
            else begin
              Hashtbl.replace pending key ();
              work := (key, dv) :: !work
            end
      end
      else work := (key, dv) :: !work)
    reqs;
  let work = Array.of_list (List.rev !work) in
  let results = run_work ctx (Array.map snd work) in
  let fresh : (string, float) Hashtbl.t = Hashtbl.create (Array.length work) in
  Array.iteri
    (fun j (key, _) ->
      Hashtbl.replace fresh key results.(j);
      if ctx.opts.memoize then Hashtbl.replace ctx.cache key results.(j))
    work;
  Array.iteri
    (fun i (key, _) ->
      if Float.is_nan costs.(i) then
        costs.(i) <- Hashtbl.find fresh key)
    reqs;
  costs

let make_ctx opts (staged : Staged.t) ~axes =
  let poss =
    Array.of_list (positions ~max_positions:opts.max_positions staged axes)
  in
  let source_flops = Func.flops (Staged.to_func staged) in
  let cache =
    match opts.table with Some t -> t | None -> Hashtbl.create 256
  in
  let ctx =
    {
      opts;
      base = staged;
      poss;
      source_flops;
      cache;
      skip_key = String.make (Array.length poss) (decision_char Skip);
      baseline = nan;
      lookups = 0;
      hits = 0;
      evals = 0;
      failed = 0;
      failed_by_kind = Hashtbl.create 8;
      oom = 0;
      domains_used = 1;
    }
  in
  (* All-Skip baseline: evaluated once, memoized for every later request.
     An imported transposition table that already holds the baseline (a
     warm server cache) skips even that first pipeline run. *)
  ctx.lookups <- ctx.lookups + 1;
  (match
     if opts.memoize then Hashtbl.find_opt ctx.cache ctx.skip_key else None
   with
  | Some c ->
      ctx.hits <- ctx.hits + 1;
      ctx.baseline <- c
  | None ->
      let dv = Array.make (Array.length poss) Skip in
      ctx.evals <- ctx.evals + 1;
      let baseline, kind = raw_cost opts staged poss source_flops dv in
      ctx.baseline <- baseline;
      count_failures ctx [| kind |];
      if opts.memoize then Hashtbl.replace ctx.cache ctx.skip_key ctx.baseline);
  ctx

let stopped opts =
  match opts.should_stop with Some f -> f () | None -> false

(* Overlap report of the applied schedule: lower the (already rewritten)
   staged module once more and replay its communication schedule. Search
   never depends on this — a lowering failure just zeroes the report. *)
let overlap_of ctx staged =
  match Partir_spmd.Lower.lower ~source_flops:ctx.source_flops staged with
  | p ->
      let ov = Cost_model.walk_overlap Cost_model.analytic ctx.opts.hardware p in
      (ov.Cost_model.total_comm_ms, ov.Cost_model.exposed_comm_ms)
  | exception _ -> (0., 0.)

let stats_of ctx ~wall_seconds ~iterations ~best_cost ~trajectory ~interrupted
    ~overlap:(total_comm_ms, exposed_comm_ms) =
  {
    Stats.wall_seconds;
    iterations;
    evaluations = ctx.evals;
    failed_evaluations = ctx.failed;
    failure_kinds =
      Hashtbl.fold (fun k n acc -> (k, n) :: acc) ctx.failed_by_kind []
      |> List.sort (fun (ka, na) (kb, nb) ->
             if na <> nb then Int.compare nb na else String.compare ka kb);
    infeasible_oom = ctx.oom;
    cache_lookups = ctx.lookups;
    cache_hits = ctx.hits;
    domains_used = ctx.domains_used;
    baseline_cost = ctx.baseline;
    best_cost;
    trajectory = List.rev trajectory;
    interrupted;
    total_comm_ms;
    exposed_comm_ms;
  }

(* ------------------------------------------------------------------ *)
(* Monte-Carlo tree search                                              *)
(* ------------------------------------------------------------------ *)

(* Leaf-parallel batches: [batch_size] episodes are selected with
   virtual-loss bookkeeping, their leaves evaluated together (one pipeline
   run per unique uncached vector), then rewards backpropagated in episode
   order. The batch size is a constant, NOT the domain count, so the search
   trajectory is identical for any [parallelism]. *)
let batch_size = 8

(* Progressive widening: how many children a node may expand given its
   visit count. The root widens on every visit, so small budgets probe
   distinct single-decision vectors; deeper nodes must accumulate
   [widen_interval] visits per child. Episodes that reach a node with no
   expandable child evaluate that node's own completion (its prefix with an
   all-Skip tail) — a transposition-table hit — so the number of unique
   pipeline evaluations stays far below the episode budget. *)
let widen_interval = 6

let allowed_children ~depth ~visits =
  if depth = 0 then 1 + visits else visits / widen_interval

type node = {
  mutable visits : int;
  mutable total_reward : float;
  mutable expanded : decision list;  (** children, in expansion order *)
}

let exploration_c = 1.4

let mcts_search opts (staged : Staged.t) ~axes =
  let t0 = Unix.gettimeofday () in
  let ctx = make_ctx opts staged ~axes in
  let poss = ctx.poss in
  let n = Array.length poss in
  let opts_arr = Array.map (options_at staged) poss in
  let tree : (string, node) Hashtbl.t = Hashtbl.create 256 in
  let node_of key =
    match Hashtbl.find_opt tree key with
    | Some nd -> nd
    | None ->
        let nd = { visits = 0; total_reward = 0.; expanded = [] } in
        Hashtbl.replace tree key nd;
        nd
  in
  let baseline = ctx.baseline in
  (* Infeasible (infinite-cost) rollouts earn 0. An infeasible *baseline*
     (the unsharded module does not fit — the memory-forces-composition
     regime) flattens rewards to a feasibility indicator: any feasible
     completion earns 1, and best-cost tracking still orders them. *)
  let reward cost =
    if not (Float.is_finite cost) then 0.
    else if Float.is_finite baseline then baseline /. (cost +. (0.01 *. baseline))
    else 1.
  in
  let best_cost = ref baseline in
  let best = ref (Array.make n Skip) in
  let trajectory = ref [ (0, baseline) ] in
  (* One episode: descend by UCB1 through saturated nodes; expand one new
     child where widening allows; the episode's vector is the prefix
     completed with Skips. Returns the node path (for backprop) and the
     vector. Virtual loss: visits increment at selection time so the other
     episodes of the same batch spread out; rewards are added after the
     batch evaluates. *)
  let select it =
    let rng = Random.State.make [| opts.seed; it |] in
    let dv = Array.make n Skip in
    let buf = Buffer.create n in
    let rec descend path depth nd =
      nd.visits <- nd.visits + 1;
      let path = nd :: path in
      if depth >= n then path
      else
        let choices = opts_arr.(depth) in
        let n_expanded = List.length nd.expanded in
        if
          n_expanded < List.length choices
          && n_expanded < allowed_children ~depth ~visits:(nd.visits - 1)
        then begin
          (* Expand a new child, chosen at random among the rest. *)
          let unexpanded =
            List.filter (fun d -> not (List.mem d nd.expanded)) choices
          in
          let pick =
            List.nth unexpanded (Random.State.int rng (List.length unexpanded))
          in
          nd.expanded <- nd.expanded @ [ pick ];
          dv.(depth) <- pick;
          Buffer.add_char buf (decision_char pick);
          let child = node_of (Buffer.contents buf) in
          child.visits <- child.visits + 1;
          child :: path
        end
        else if n_expanded = 0 then
          (* Widening not reached: evaluate this node's own completion. *)
          path
        else begin
          (* UCB1 over expanded children. *)
          let child_of d =
            let len = Buffer.length buf in
            Buffer.add_char buf (decision_char d);
            let key = Buffer.contents buf in
            Buffer.truncate buf len;
            node_of key
          in
          let ucb d =
            let c = child_of d in
            (c.total_reward /. float_of_int (max 1 c.visits))
            +. exploration_c
               *. Stdlib.sqrt
                    (Stdlib.log (float_of_int (max 1 nd.visits))
                    /. float_of_int (max 1 c.visits))
          in
          let pick =
            match nd.expanded with
            | [] -> assert false
            | first :: rest ->
                fst
                  (List.fold_left
                     (fun (bd, bu) d ->
                       let u = ucb d in
                       if u > bu then (d, u) else (bd, bu))
                     (first, ucb first) rest)
          in
          dv.(depth) <- pick;
          Buffer.add_char buf (decision_char pick);
          descend path (depth + 1) (node_of (Buffer.contents buf))
        end
    in
    let path = descend [] 0 (node_of "") in
    (path, dv)
  in
  let iterations = max 1 (opts.budget - 1) in
  let it = ref 1 in
  let interrupted = ref false in
  (* Budget-checkpoint granularity: cancellation is polled between rollout
     batches, never inside one, so a fired [should_stop] still leaves the
     best-so-far vector from completed batches intact. *)
  while !it <= iterations && not !interrupted do
    if stopped opts then interrupted := true
    else begin
    let batch = min batch_size (iterations - !it + 1) in
    let episodes =
      Array.init batch (fun k ->
          let path, dv = select (!it + k) in
          (path, key_of dv, dv))
    in
    let costs =
      eval_batch ctx (Array.map (fun (_, key, dv) -> (key, dv)) episodes)
    in
    Array.iteri
      (fun k (path, _, dv) ->
        let cost = costs.(k) in
        if cost < !best_cost then begin
          best_cost := cost;
          best := Array.copy dv;
          trajectory := (!it + k, cost) :: !trajectory
        end;
        let r = reward cost in
        List.iter (fun nd -> nd.total_reward <- nd.total_reward +. r) path)
      episodes;
    it := !it + batch
    end
  done;
  apply_best staged poss !best;
  let stats =
    stats_of ctx
      ~wall_seconds:(Unix.gettimeofday () -. t0)
      ~iterations:(min !it (iterations + 1))
      ~best_cost:!best_cost ~trajectory:!trajectory ~interrupted:!interrupted
      ~overlap:(overlap_of ctx staged)
  in
  Option.iter (fun f -> f stats) opts.on_stats;
  stats

(* ------------------------------------------------------------------ *)
(* Greedy lookahead                                                     *)
(* ------------------------------------------------------------------ *)

let greedy_search opts (staged : Staged.t) ~axes =
  let t0 = Unix.gettimeofday () in
  let ctx = make_ctx opts staged ~axes in
  let poss = ctx.poss in
  let n = Array.length poss in
  let opts_arr = Array.map (options_at staged) poss in
  let chosen = Array.make n Skip in
  let best_cost = ref ctx.baseline in
  let trajectory = ref [ (0, ctx.baseline) ] in
  let used = ref 1 (* the baseline evaluation *) in
  let interrupted = ref false in
  for i = 0 to n - 1 do
    if !interrupted || stopped opts then interrupted := true
    else begin
    (* Evaluate every candidate at this position (prefix of choices made so
       far, all-Skip tail) as one batch: the Skip candidate is the current
       best vector, i.e. a guaranteed cache hit, and the rest fan out over
       the domain pool. Candidates beyond the evaluation budget are dropped
       (the position then keeps whichever evaluated candidate won, or
       Skip). *)
    let reqs =
      List.filter_map
        (fun d ->
          if !used >= opts.budget then None
          else begin
            incr used;
            let dv = Array.copy chosen in
            dv.(i) <- d;
            Some (key_of dv, dv, d)
          end)
        opts_arr.(i)
    in
    let costs =
      eval_batch ctx
        (Array.of_list (List.map (fun (key, dv, _) -> (key, dv)) reqs))
    in
    List.iteri
      (fun j (_, _, d) ->
        if costs.(j) < !best_cost then begin
          best_cost := costs.(j);
          chosen.(i) <- d;
          trajectory := (!used, costs.(j)) :: !trajectory
        end)
      reqs
    end
  done;
  apply_best staged poss chosen;
  let stats =
    stats_of ctx
      ~wall_seconds:(Unix.gettimeofday () -. t0)
      ~iterations:!used ~best_cost:!best_cost ~trajectory:!trajectory
      ~interrupted:!interrupted
      ~overlap:(overlap_of ctx staged)
  in
  Option.iter (fun f -> f stats) opts.on_stats;
  stats

let mcts ~axes opts =
  Schedule.Automatic
    {
      label = "Auto(mcts)";
      axes;
      search = (fun staged ~axes -> ignore (mcts_search opts staged ~axes));
    }

let greedy ~axes opts =
  Schedule.Automatic
    {
      label = "Auto(greedy)";
      axes;
      search = (fun staged ~axes -> ignore (greedy_search opts staged ~axes));
    }
