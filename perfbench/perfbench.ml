(* perfbench: the repository benchmark (see README.md beside this file).

   Three closed-loop workloads, one client with one outstanding request,
   all models, meshes and tactics built through Partir_serve.Zoo:

   - partition: [Schedule.jit ~hardware] then [Analysis.check_program] on
     five rows, round-robin in a seeded order;
   - search: a fresh [Auto.mcts_search] on T32 per op;
   - serve: a forked partition daemon answering a seeded stream of cache
     hits and first-ask misses.

   [--trace 0] runs print the end-to-end metrics. [--trace 1] runs time
   each op plainly and again with counting hooks, then replay every layer
   call on the op's own inputs and print the per-layer ledger. The last
   stdout line is one JSON object; a failed output check marks the run
   incorrect and makes it exit 1. *)

module Zoo = Partir_serve.Zoo
module Server = Partir_serve.Server
module Client = Partir_serve.Client
module Protocol = Partir_serve.Protocol
module Store = Partir_serve.Store
module Cache = Partir_serve.Cache
module Schedule = Partir_schedule.Schedule
module Analysis = Partir_analysis.Analysis
module Diagnostic = Partir_analysis.Diagnostic
module Verify = Partir_analysis.Verify
module Shard_check = Partir_analysis.Shard_check
module Collective_lint = Partir_analysis.Collective_lint
module Mem_check = Partir_analysis.Mem_check
module Auto = Partir_auto.Auto
module Staged = Partir_core.Staged
module Propagate = Partir_core.Propagate
module Lower = Partir_spmd.Lower
module Fusion = Partir_spmd.Fusion
module Census = Partir_spmd.Census
module Comm_schedule = Partir_spmd.Comm_schedule
module Cost_model = Partir_sim.Cost_model
module Engine = Partir_sim.Engine
module Hardware = Partir_sim.Hardware
module Func = Partir_hlo.Func

let hardware_name = "tpu_v3"
let hardware = Hardware.find hardware_name

(* ---------- arguments ---------- *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  plant : string;
      (** self-test only: corrupt one output ([digest], [inf] or [diag])
          so that its check must fail *)
}

let parse_args ~probe_main =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and plant = ref "" in
  let usage =
    "perfbench --workload partition|search|serve --seed N --seconds S \
     --trace 0|1"
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " partition, search or serve");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measuring time");
      ("--trace", Arg.Set_int trace, " 1: per-layer ledger instead");
      ("--plant", Arg.Set_string plant, " digest|inf|diag (self-test)");
      ("--probe", Arg.Unit probe_main, " time the calibration work and exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if not (List.mem !workload [ "partition"; "search"; "serve" ]) then begin
    prerr_endline usage;
    exit 2
  end;
  {
    workload = !workload;
    seed = !seed;
    seconds = !seconds;
    trace = !trace = 1;
    plant = !plant;
  }

(* ---------- statistics ---------- *)

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, 1e3 *. (now () -. t0))

let sorted l = Array.of_list (List.sort Float.compare l)

let median l =
  let a = sorted l in
  match Array.length a with
  | 0 -> nan
  | n when n mod 2 = 1 -> a.(n / 2)
  | n -> (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile. *)
let percentile p l =
  let a = sorted l in
  match Array.length a with
  | 0 -> nan
  | n -> a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let geomean l =
  exp (List.fold_left (fun acc x -> acc +. log x) 0. l /. float_of_int (List.length l))

let sum = List.fold_left ( +. ) 0.

(* ---------- machine-speed calibration ---------- *)

(* The machines this runs on drift between speed regimes for tens of
   seconds at a time, which moved whole-run medians by 10-20%. So each run
   also times a fixed piece of work in a fresh process (this executable
   with --probe), which shares neither code nor heap with the libraries
   under test, and reports its times at the speed where that work takes
   [reference_probe_ms]. The work builds and folds a 200k-entry Map: like
   the ops, it allocates heavily and keeps a major heap of tens of MB. *)
let calibration_work () =
  let module M = Map.Make (Int) in
  let m = ref M.empty in
  for i = 0 to 199_999 do
    m := M.add ((i * 7919) land 0xfffff) i !m
  done;
  M.fold (fun k v acc -> acc + (k lxor v)) !m 0

let probe_main () =
  let (_ : int), ms = timed (fun () -> Sys.opaque_identity (calibration_work ())) in
  Printf.printf "%.6f\n" ms;
  exit 0

let reference_probe_ms = 230.
let probes = ref []
let last_probe = ref neg_infinity

(* At most once every two seconds, time the calibration work in a fresh
   process. *)
let probe_if_due () =
  if now () -. !last_probe >= 2. then begin
    let exe = Sys.executable_name in
    let ic = Unix.open_process_args_in exe [| exe; "--probe" |] in
    let line = try input_line ic with End_of_file -> "" in
    (match Unix.close_process_in ic, float_of_string_opt line with
    | Unix.WEXITED 0, Some ms -> probes := ms :: !probes
    | _ -> failwith "perfbench: calibration probe failed");
    last_probe := now ()
  end

(* Before a partition op or a search. *)
let compact_and_probe () =
  Gc.compact ();
  probe_if_due ()

(* Times are multiplied by this, rates divided by it. *)
let speed_factor () = reference_probe_ms /. median !probes

(* Samples keyed by (op class, metric): partition rows, "search", or the
   serve classes "hit" and "miss". *)
module Ledger = struct
  type t = (string * string, float list) Hashtbl.t

  let create () : t = Hashtbl.create 64

  let samples t ~cls name =
    Option.value ~default:[] (Hashtbl.find_opt t (cls, name))

  let add t ~cls name v = Hashtbl.replace t (cls, name) (v :: samples t ~cls name)
  let median t ~cls name = median (samples t ~cls name)

  (* One pass over the classes: the sum of per-class medians. *)
  let per_pass t ~classes name =
    sum (List.map (fun cls -> median t ~cls name) classes)
end

(* ---------- checks ---------- *)

type tally = { mutable attempted : int; mutable failed : int }

let tally = { attempted = 0; failed = 0 }

(* Record one op's output checks: any failed check fails the op. *)
let record_op errors =
  tally.attempted <- tally.attempted + 1;
  if errors <> [] then begin
    tally.failed <- tally.failed + 1;
    List.iter (fun e -> Printf.printf "CHECK FAILED: %s\n%!" e) errors
  end

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* ---------- process facts ---------- *)

let vm_hwm_mb pid =
  match open_in (Printf.sprintf "/proc/%s/status" pid) with
  | exception Sys_error _ -> nan
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec go () =
            match input_line ic with
            | exception End_of_file -> nan
            | line when String.starts_with ~prefix:"VmHWM:" line ->
                Scanf.sscanf
                  (String.sub line 6 (String.length line - 6))
                  " %f" (fun kb -> kb /. 1024.)
            | _ -> go ()
          in
          go ())

let first_line_of cmd =
  match Unix.open_process_in cmd with
  | exception Unix.Unix_error _ -> "unknown"
  | ic ->
      let line = try input_line ic with End_of_file -> "unknown" in
      ignore (Unix.close_process_in ic);
      line

let read_file path =
  try In_channel.with_open_bin path In_channel.input_all |> String.trim
  with Sys_error _ -> ""

(* The checked-out revision when run inside a git work tree. *)
let git_rev () =
  match read_file ".git/HEAD" with
  | "" -> "unknown"
  | head when String.starts_with ~prefix:"ref: " head ->
      let r = String.sub head 5 (String.length head - 5) in
      let direct = read_file (Filename.concat ".git" r) in
      if direct <> "" then direct
      else
        read_file ".git/packed-refs"
        |> String.split_on_char '\n'
        |> List.find_map (fun l ->
               match String.split_on_char ' ' l with
               | [ sha; name ] when name = r -> Some sha
               | _ -> None)
        |> Option.value ~default:"unknown"
  | sha -> sha

let print_header args =
  Printf.printf
    "# perfbench workload=%s seed=%d seconds=%g trace=%d nproc=%s \
     domains=%d ocaml=%s rev=%s\n\
     %!"
    args.workload args.seed args.seconds
    (if args.trace then 1 else 0)
    (first_line_of "nproc --all")
    (Partir_parallel.num_domains ())
    Sys.ocaml_version (git_rev ())

(* ---------- counting hooks ---------- *)

(* Wrap the installed lowering and fusion hooks with counters for the
   duration of [f]: lowerings done and fusion rewrites applied. *)
let with_counting_hooks f =
  let lowerings = ref 0 and rewrites = ref 0 in
  let lower0 = !Lower.debug_hook and fusion0 = !Fusion.debug_hook in
  (Lower.debug_hook :=
     fun p ->
       incr lowerings;
       lower0 p);
  (Fusion.debug_hook :=
     fun label fn ->
       incr rewrites;
       fusion0 label fn);
  Fun.protect
    ~finally:(fun () ->
      Lower.debug_hook := lower0;
      Fusion.debug_hook := fusion0)
    (fun () ->
      let r = f () in
      (r, !lowerings, !rewrites))

(* ---------- seeded helpers ---------- *)

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* [setup] several times; the median is setup_s, the last result is used. *)
let repeated_setup n setup =
  let rec go k acc last =
    if k = 0 then (Option.get last, median acc)
    else
      let r, ms = timed setup in
      go (k - 1) ((ms /. 1e3) :: acc) (Some r)
  in
  go n [] None

(* Run [op] over [classes] in rounds until [seconds] have passed; always
   completes at least one round, and never stops mid-round. *)
let run_rounds ~seconds classes op =
  let deadline = now () +. seconds in
  let rec go () =
    Array.iter op classes;
    if now () < deadline then go ()
  in
  go ()

(* ---------- metrics ---------- *)

type metric = { name : string; value : float; unit : string }

let m name unit value = { name; value; unit }

(* Class medians summarized the same way on every workload. *)
let op_summary ~prefix ledger ~classes name =
  let meds = List.map (fun cls -> Ledger.median ledger ~cls name) classes in
  [
    m (prefix ^ "op_ms.geomean") "ms" (geomean meds);
    m (prefix ^ "op_ms.fast") "ms" (List.fold_left Float.min infinity meds);
    m (prefix ^ "op_ms.slow") "ms" (List.fold_left Float.max neg_infinity meds);
  ]

let rows_names = [ "t32"; "unet"; "gns"; "it32"; "t32_wide" ]

(* Partition per-layer times also reported per row, as <name>.<row>. *)
let starred =
  [ "schedule.jit_ms"; "spmd.lower_ms"; "spmd.fusion_ms"; "sim.cost_walk_ms";
    "analysis.lint_ms"; "analysis.mem_check_ms" ]

let per_row name = name :: List.map (fun r -> name ^ "." ^ r) rows_names
let diag_groups = [ "MC001"; "MC002"; "MC003"; "MC004"; "V"; "S"; "SC"; "CL" ]

(* Every per-layer metric, in the order BENCHMARK.json lists them. A
   traced run prints all of them; a layer its workload never calls reads
   0. *)
let per_layer_names : (string * string) list =
  List.map (fun r -> ("partition_ms." ^ r, "ms")) rows_names
  @ List.map (fun n -> (n, "ms")) (per_row "schedule.jit_ms")
  @ [
      ("schedule.report_ms", "ms");
      ("schedule.lowerings", "count");
      ("core.stage_ms", "ms");
      ("core.propagate_ms", "ms");
    ]
  @ List.map (fun n -> (n, "ms")) (per_row "spmd.lower_ms")
  @ List.map (fun n -> (n, "ms")) (per_row "spmd.fusion_ms")
  @ [
      ("spmd.fusion_rewrites", "count");
      ("spmd.ops_unfused", "count");
      ("spmd.ops_fused", "count");
      ("spmd.collectives", "count");
      ("spmd.comm_schedule_ms", "ms");
    ]
  @ List.map (fun n -> (n, "ms")) (per_row "sim.cost_walk_ms")
  @ [
      ("sim.engine_ms", "ms");
      ("analysis.verify_ms", "ms");
      ("analysis.shard_check_ms", "ms");
      ("analysis.lint_trace_ms", "ms");
    ]
  @ List.map (fun n -> (n, "ms")) (per_row "analysis.lint_ms")
  @ List.map (fun n -> (n, "ms")) (per_row "analysis.mem_check_ms")
  @ [ ("analysis.diagnostics", "count") ]
  @ List.map (fun g -> ("analysis.diagnostics." ^ g, "count")) diag_groups
  @ [
      ("search_s.p50", "s");
      ("auto.iterations", "count");
      ("auto.evaluations", "count");
      ("auto.cache_hit_ratio", "ratio");
      ("auto.infeasible_oom", "count");
      ("auto.failed_evaluations", "count");
      ("auto.evals_per_s", "1/s");
      ("auto.evaluate_ms", "ms");
      ("core.copy_ms", "ms");
      ("auto.self_ms", "ms");
      ("hit_ms.p50", "ms");
      ("hit_ms.p99", "ms");
      ("miss_ms.p50", "ms");
      ("hit.connect_ms", "ms");
      ("hit.wait_ms", "ms");
      ("hit.server_ms", "ms");
      ("store.get_ms", "ms");
      ("cache.decode_ms", "ms");
      ("miss.wait_ms", "ms");
      ("miss.server_ms", "ms");
      ("store.put_ms", "ms");
      ("cache.encode_ms", "ms");
      ("cache.fingerprint_ms", "ms");
      ("zoo.prepare_ms", "ms");
      ("miss.jit_ms", "ms");
      ("serve.hits", "count");
      ("serve.misses", "count");
      ("serve.errors", "count");
      ("serve.shed", "count");
      ("serve.degraded", "count");
      ("trace.op_ms.geomean", "ms");
      ("trace.op_ms.fast", "ms");
      ("trace.op_ms.slow", "ms");
      ("trace.overhead_ratio", "ratio");
    ]

(* Fill the full per-layer list from the values a workload measured. *)
let per_layer_metrics measured =
  List.iter
    (fun (mt : metric) ->
      if not (List.mem_assoc mt.name per_layer_names) then
        failwith ("perfbench: unlisted per-layer metric " ^ mt.name))
    measured;
  List.map
    (fun (name, unit) ->
      match List.find_opt (fun (mt : metric) -> mt.name = name) measured with
      | Some mt -> mt
      | None -> m name unit 0.)
    per_layer_names

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result metrics =
  let finite = List.for_all (fun mt -> Float.is_finite mt.value) metrics in
  List.iter
    (fun mt ->
      if not (Float.is_finite mt.value) then
        Printf.printf "CHECK FAILED: metric %s is not finite\n" mt.name)
    metrics;
  let correct = tally.failed = 0 && tally.attempted > 0 && finite in
  let body =
    String.concat ", "
      (List.map
         (fun mt ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" mt.name
             (json_number (if Float.is_finite mt.value then mt.value else 0.))
             mt.unit)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct tally.attempted tally.failed body;
  correct

(* ====================================================================== *)
(* partition                                                              *)
(* ====================================================================== *)

type row = {
  row : string;
  model : string;
  schedule : string;
  mesh : string;
  expected : string list;  (** diagnostic codes check_program must report *)
  repeats : int;
      (** ops per visit: cheap rows repeat so that each visit takes about
          a second and every row gets a usable number of samples *)
}

(* The Fig 8 set plus T32 on 128 devices. MC001 on the T32 rows and IT32:
   this reproduction is f32 without rematerialization, which exceeds the
   16 GB device there. *)
let rows =
  [|
    { row = "t32"; model = "t32"; schedule = "bp,mp,z3"; mesh = "batch=16,model=2";
      expected = [ "MC001" ]; repeats = 1 };
    { row = "unet"; model = "unet"; schedule = "bp,z3"; mesh = "batch=8,model=2";
      expected = []; repeats = 1 };
    { row = "gns"; model = "gns"; schedule = "es"; mesh = "batch=8"; expected = [];
      repeats = 2 };
    { row = "it32"; model = "it32"; schedule = "bp,mp"; mesh = "batch=16,model=2";
      expected = [ "MC001" ]; repeats = 5 };
    { row = "t32_wide"; model = "t32"; schedule = "bp,mp"; mesh = "batch=16,model=8";
      expected = [ "MC001" ]; repeats = 1 };
  |]

type row_state = {
  spec : row;
  prepared : Zoo.prepared;
  mesh_t : Partir_mesh.Mesh.t;
  tactics : Schedule.tactic list;
  mutable digest : string option;
  mutable ops : int;
}

let setup_rows () =
  let models = Hashtbl.create 4 in
  let prepare name =
    match Hashtbl.find_opt models name with
    | Some p -> p
    | None ->
        let p = Zoo.prepare name in
        Hashtbl.replace models name p;
        p
  in
  Array.map
    (fun spec ->
      let prepared = prepare spec.model in
      {
        spec;
        prepared;
        mesh_t = Zoo.parse_mesh spec.mesh;
        tactics = Zoo.tactics_of prepared hardware 16 spec.schedule;
        digest = None;
        ops = 0;
      })
    rows

let jit ?hardware st =
  Schedule.jit ?hardware ~ties:st.prepared.Zoo.ties st.mesh_t
    st.prepared.Zoo.func st.tactics

(* One op: jit with simulator reports, then every analysis pass. Returns
   the result, diagnostics, and the two timings in ms. *)
let partition_op st =
  compact_and_probe ();
  let r, jit_ms = timed (fun () -> jit ~hardware st) in
  let diags, check_ms =
    timed (fun () -> Analysis.check_program ~hardware r.Schedule.program)
  in
  (r, diags, jit_ms, check_ms)

let check_partition ~plant st (r : Schedule.result) diags =
  st.ops <- st.ops + 1;
  let codes =
    List.sort_uniq String.compare
      (List.map (fun (d : Diagnostic.t) -> d.Diagnostic.code) diags)
  in
  let codes = if plant = "diag" && st.ops = 1 then "CL005" :: codes else codes in
  let digest = Cache.plan_digest r.Schedule.program in
  let digest = if plant = "digest" && st.ops = 2 then digest ^ "x" else digest in
  let runtime =
    match List.rev r.Schedule.reports with
    | { Schedule.estimate = Some e; _ } :: _ -> e.Cost_model.runtime_ms
    | _ -> nan
  in
  let runtime = if plant = "inf" then infinity else runtime in
  let errs = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> errs := (st.spec.row ^ ": " ^ s) :: !errs) fmt in
  if codes <> st.spec.expected then
    fail "diagnostic codes [%s], expected [%s]" (String.concat "," codes)
      (String.concat "," st.spec.expected);
  (match st.digest with
  | None -> st.digest <- Some digest
  | Some d when d <> digest -> fail "plan digest %s differs from %s" digest d
  | Some _ -> ());
  if not (Float.is_finite runtime) then fail "estimate %g is not finite" runtime;
  record_op !errs

let diag_group (d : Diagnostic.t) =
  let c = d.Diagnostic.code in
  if String.starts_with ~prefix:"MC" c then c
  else if String.starts_with ~prefix:"SC" c then "SC"
  else if String.starts_with ~prefix:"CL" c then "CL"
  else if String.starts_with ~prefix:"V" c then "V"
  else "S"

let census_collectives (c : Census.t) =
  c.Census.all_gather + c.Census.all_reduce + c.Census.reduce_scatter
  + c.Census.all_to_all

(* Traced op: plain op, hooked op, jit without reports, then every layer
   replayed on the hooked op's result. *)
let partition_traced ~plant ledger st =
  let cls = st.spec.row in
  let add name v = Ledger.add ledger ~cls name v in
  let _, _, jit_ms, check_ms = partition_op st in
  add "plain" (jit_ms +. check_ms);
  Gc.compact ();
  let ((r, jit_ms), lowerings, _) =
    with_counting_hooks (fun () -> timed (fun () -> jit ~hardware st))
  in
  let diags, check_ms =
    timed (fun () -> Analysis.check_program ~hardware r.Schedule.program)
  in
  check_partition ~plant st r diags;
  add "traced" (jit_ms +. check_ms);
  add "schedule.jit_ms" jit_ms;
  add "schedule.lowerings" (float_of_int lowerings);
  let _, bare_ms = timed (fun () -> jit st) in
  add "schedule.report_ms" (jit_ms -. bare_ms);
  let program = r.Schedule.program in
  let mesh = program.Lower.mesh in
  add "core.stage_ms" (snd (timed (fun () -> Staged.of_func st.mesh_t st.prepared.Zoo.func)));
  let copy = Staged.copy r.Schedule.staged in
  add "core.propagate_ms" (snd (timed (fun () -> Propagate.run copy)));
  let unfused, lower_ms =
    timed (fun () ->
        Lower.lower ~ties:st.prepared.Zoo.ties ~fuse:false r.Schedule.staged)
  in
  add "spmd.lower_ms" lower_ms;
  let ((fused, fusion_ms), _, rewrites) =
    with_counting_hooks (fun () ->
        timed (fun () -> Fusion.run unfused.Lower.func))
  in
  add "spmd.fusion_ms" fusion_ms;
  add "spmd.fusion_rewrites" (float_of_int rewrites);
  add "spmd.ops_unfused" (float_of_int (Func.op_count unfused.Lower.func));
  add "spmd.ops_fused" (float_of_int (Func.op_count fused));
  add "spmd.collectives"
    (float_of_int (census_collectives (Census.of_program program)));
  add "spmd.comm_schedule_ms"
    (snd (timed (fun () -> Comm_schedule.of_program program)));
  add "sim.cost_walk_ms"
    (snd (timed (fun () -> Cost_model.run Cost_model.analytic hardware program)));
  add "sim.engine_ms"
    (snd (timed (fun () -> Engine.simulate Cost_model.measured hardware program)));
  add "analysis.verify_ms"
    (snd (timed (fun () -> Verify.func ~mesh program.Lower.func)));
  add "analysis.shard_check_ms"
    (snd (timed (fun () -> Shard_check.program program)));
  add "analysis.lint_trace_ms"
    (snd (timed (fun () -> Collective_lint.trace mesh program.Lower.func)));
  add "analysis.lint_ms" (snd (timed (fun () -> Collective_lint.program program)));
  add "analysis.mem_check_ms"
    (snd (timed (fun () -> Mem_check.program ~hardware program)));
  add "analysis.diagnostics" (float_of_int (List.length diags));
  List.iter
    (fun g ->
      add ("analysis.diagnostics." ^ g)
        (float_of_int (List.length (List.filter (fun d -> diag_group d = g) diags))))
    diag_groups

let partition_metrics ~traced ledger =
  let classes = rows_names in
  let row_medians name = List.map (fun r -> Ledger.median ledger ~cls:r name) classes in
  List.iter2
    (fun r v ->
      Printf.printf "partition_ms.%s = %.1f ms (n=%d)\n" r v
        (List.length (Ledger.samples ledger ~cls:r "plain")))
    classes (row_medians "plain");
  if not traced then op_summary ~prefix:"" ledger ~classes "plain"
  else
    let summed =
      [ "schedule.jit_ms"; "schedule.report_ms"; "schedule.lowerings";
        "core.stage_ms"; "core.propagate_ms"; "spmd.lower_ms"; "spmd.fusion_ms";
        "spmd.fusion_rewrites"; "spmd.ops_unfused"; "spmd.ops_fused";
        "spmd.collectives"; "spmd.comm_schedule_ms"; "sim.cost_walk_ms";
        "sim.engine_ms"; "analysis.verify_ms"; "analysis.shard_check_ms";
        "analysis.lint_trace_ms"; "analysis.lint_ms"; "analysis.mem_check_ms";
        "analysis.diagnostics" ]
      @ List.map (fun g -> "analysis.diagnostics." ^ g) diag_groups
    in
    let unit_of name = List.assoc name per_layer_names in
    List.map (fun name -> m name (unit_of name) (Ledger.per_pass ledger ~classes name)) summed
    @ List.concat_map
        (fun name ->
          List.map
            (fun r -> m (name ^ "." ^ r) "ms" (Ledger.median ledger ~cls:r name))
            classes)
        starred
    @ List.map2 (fun r v -> m ("partition_ms." ^ r) "ms" v) classes (row_medians "plain")
    @ op_summary ~prefix:"trace." ledger ~classes "traced"
    @ [
        m "trace.overhead_ratio" "ratio"
          (Ledger.per_pass ledger ~classes "traced"
          /. Ledger.per_pass ledger ~classes "plain");
      ]

let partition args =
  let states, setup_s = repeated_setup 3 setup_rows in
  let order = shuffle (Random.State.make [| args.seed |]) states in
  let ledger = Ledger.create () in
  (* Warm-up: one op of the row with the largest heap (t32), checked but
     not timed, so that every run grows its heap the same way first. *)
  (let st = states.(0) in
   let r, diags, _, _ = partition_op st in
   check_partition ~plant:args.plant st r diags);
  run_rounds ~seconds:args.seconds order (fun st ->
      for _ = 1 to st.spec.repeats do
        if args.trace then partition_traced ~plant:args.plant ledger st
        else begin
          let r, diags, jit_ms, check_ms = partition_op st in
          check_partition ~plant:args.plant st r diags;
          Ledger.add ledger ~cls:st.spec.row "plain" (jit_ms +. check_ms)
        end
      done);
  let metrics = partition_metrics ~traced:args.trace ledger in
  if args.trace then per_layer_metrics metrics
  else
    m "setup_s" "s" setup_s
    :: m "peak_rss_mb" "MB" (vm_hwm_mb "self")
    :: metrics

(* ====================================================================== *)
(* search                                                                 *)
(* ====================================================================== *)

let search_axes = [ "batch"; "model" ]

(* The memory limit is lifted on purpose: at the default 16 GB every T32
   rollout on this mesh is OOM-rejected (this reproduction is f32 without
   rematerialization), so best = baseline = inf and the search degenerates
   to pricing one schedule. The finite-best check guards against that. *)
let search_options seed =
  {
    Auto.default_options with
    hardware;
    budget = 64;
    max_positions = 16;
    memory_limit_bytes = Some infinity;
    seed;
    parallelism = 1;
  }

(* The MCTS seed is fixed: search time varies with it (2.7-3.7 s across
   seeds 1-4), which would swamp any change to the code, so every op of
   every run does the same search. *)
let mcts_seed = 1

type search_state = {
  s_prepared : Zoo.prepared;
  s_mesh : Partir_mesh.Mesh.t;
  mutable best : float option;  (** the first op's best cost *)
}

let setup_search () =
  {
    s_prepared = Zoo.prepare "t32";
    s_mesh = Zoo.parse_mesh "batch=8,model=4";
    best = None;
  }

let fresh_staged st = Staged.of_func st.s_mesh st.s_prepared.Zoo.func

let search_op st =
  let opts = search_options mcts_seed in
  let staged = fresh_staged st in
  compact_and_probe ();
  let stats, ms =
    timed (fun () -> Auto.mcts_search opts staged ~axes:search_axes)
  in
  (opts, staged, stats, ms)

(* best finite and below the baseline, identical across ops, and equal bit
   for bit to a fresh evaluation of the module the search left applied. *)
let check_search ~plant st opts staged (stats : Auto.Stats.t) =
  let best = if plant = "inf" then infinity else stats.Auto.Stats.best_cost in
  let baseline = stats.Auto.Stats.baseline_cost in
  let errs = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> errs := ("search: " ^ s) :: !errs) fmt in
  if not (Float.is_finite best) then
    fail "best cost %g is not finite (every rollout rejected?)" best
  else if not (best < baseline) then
    fail "best cost %g is not below the baseline %g" best baseline;
  (match st.best with
  | None -> st.best <- Some best
  | Some b when not (same_float b best) -> fail "best cost %h differs from %h" best b
  | Some _ -> ());
  (match Auto.evaluate opts staged with
  | e when not (same_float e best) ->
      fail "best cost %h but the applied module evaluates to %h" best e
  | _ -> ()
  | exception Auto.Infeasible_oom _ -> fail "the applied module is OOM-infeasible");
  record_op !errs

let search_traced ~plant ledger st =
  let add = Ledger.add ledger ~cls:"search" in
  let _, _, _, plain_ms = search_op st in
  add "plain" plain_ms;
  let opts = search_options mcts_seed in
  let staged = fresh_staged st in
  Gc.compact ();
  let (stats, ms), _, _ =
    with_counting_hooks (fun () ->
        timed (fun () -> Auto.mcts_search opts staged ~axes:search_axes))
  in
  check_search ~plant st opts staged stats;
  add "traced" ms;
  let s = stats in
  add "auto.iterations" (float_of_int s.Auto.Stats.iterations);
  add "auto.evaluations" (float_of_int s.Auto.Stats.evaluations);
  add "auto.cache_hit_ratio"
    (float_of_int s.Auto.Stats.cache_hits
    /. float_of_int (max 1 s.Auto.Stats.cache_lookups));
  add "auto.infeasible_oom" (float_of_int s.Auto.Stats.infeasible_oom);
  add "auto.failed_evaluations" (float_of_int s.Auto.Stats.failed_evaluations);
  add "auto.evals_per_s"
    (float_of_int s.Auto.Stats.evaluations /. s.Auto.Stats.wall_seconds);
  let _, eval_ms = timed (fun () -> Auto.evaluate opts staged) in
  add "auto.evaluate_ms" eval_ms;
  add "auto.self_ms" (ms -. (float_of_int s.Auto.Stats.evaluations *. eval_ms));
  (* The pieces of one evaluation, on the applied module. *)
  let copy, copy_ms = timed (fun () -> Staged.copy staged) in
  add "core.copy_ms" copy_ms;
  add "core.propagate_ms" (snd (timed (fun () -> Propagate.run copy)));
  let unfused, lower_ms = timed (fun () -> Lower.lower ~fuse:false staged) in
  add "spmd.lower_ms" lower_ms;
  let fused, fusion_ms = timed (fun () -> Fusion.run unfused.Lower.func) in
  add "spmd.fusion_ms" fusion_ms;
  let program = { unfused with Lower.func = fused } in
  add "sim.cost_walk_ms"
    (snd (timed (fun () -> Cost_model.run Cost_model.analytic hardware program)));
  add "analysis.mem_check_ms" (snd (timed (fun () -> Mem_check.analyze program)))

let search args =
  let st, setup_s = repeated_setup 3 setup_search in
  let ledger = Ledger.create () in
  (let opts, staged, stats, _ = search_op st in
   check_search ~plant:args.plant st opts staged stats);
  run_rounds ~seconds:args.seconds [| () |] (fun () ->
      if args.trace then search_traced ~plant:args.plant ledger st
      else begin
        let opts, staged, stats, ms = search_op st in
        check_search ~plant:args.plant st opts staged stats;
        Ledger.add ledger ~cls:"search" "plain" ms
      end);
  let classes = [ "search" ] in
  let p50 = Ledger.median ledger ~cls:"search" "plain" /. 1e3 in
  Printf.printf "search_s.p50 = %.3f s (n=%d)\n" p50
    (List.length (Ledger.samples ledger ~cls:"search" "plain"));
  if not args.trace then
    m "setup_s" "s" setup_s
    :: m "peak_rss_mb" "MB" (vm_hwm_mb "self")
    :: op_summary ~prefix:"" ledger ~classes "plain"
  else
    let med name =
      m name (List.assoc name per_layer_names) (Ledger.median ledger ~cls:"search" name)
    in
    per_layer_metrics
      (m "search_s.p50" "s" p50
       :: List.map med
            [ "auto.iterations"; "auto.evaluations"; "auto.cache_hit_ratio";
              "auto.infeasible_oom"; "auto.failed_evaluations"; "auto.evals_per_s";
              "auto.evaluate_ms"; "auto.self_ms"; "core.copy_ms"; "core.propagate_ms";
              "spmd.lower_ms"; "spmd.fusion_ms"; "sim.cost_walk_ms";
              "analysis.mem_check_ms" ]
      @ op_summary ~prefix:"trace." ledger ~classes "traced"
      @ [
          m "trace.overhead_ratio" "ratio"
            (Ledger.median ledger ~cls:"search" "traced"
            /. Ledger.median ledger ~cls:"search" "plain");
        ])

(* ====================================================================== *)
(* serve                                                                  *)
(* ====================================================================== *)

(* Sockets, stores and daemon logs live under the working directory. *)
let tmp_root = Filename.concat ".perfbench_tmp" (string_of_int (Unix.getpid ()))

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error _ -> ()

let mkdir_p path =
  ignore
    (List.fold_left
       (fun acc part ->
         let d = if acc = "" then part else Filename.concat acc part in
         (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
         d)
       ""
       (String.split_on_char '/' path))

type daemon = { pid : int; socket : string; store_dir : string }

let stop_daemon d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  snd (Unix.waitpid [] d.pid)

(* Fork a daemon pinned to one domain, on a fresh store; return it with
   the seconds from fork until it accepts connections (polled every
   0.5 ms). *)
let spawn_daemon i =
  let file ext = Filename.concat tmp_root (Printf.sprintf "d%d%s" i ext) in
  let socket = file ".sock" and store_dir = file "-store" in
  flush_all ();
  let t0 = now () in
  match Unix.fork () with
  | 0 -> (
      try
        let log = Unix.openfile (file ".log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
        Unix.dup2 log Unix.stdout;
        Unix.dup2 log Unix.stderr;
        Partir_parallel.set_num_domains 1;
        ignore
          (Server.serve
             {
               Server.default_config with
               socket_path = socket;
               store_dir;
               hardware = hardware_name;
             });
        Unix._exit 0
      with _ -> Unix._exit 3)
  | pid ->
      let d = { pid; socket; store_dir } in
      let rec poll () =
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        match Unix.connect fd (Unix.ADDR_UNIX socket) with
        | () ->
            Unix.close fd;
            now () -. t0
        | exception Unix.Unix_error _ ->
            Unix.close fd;
            if now () -. t0 > 30. then begin
              ignore (stop_daemon d);
              failwith "perfbench: daemon did not come up"
            end;
            Unix.sleepf 0.0005;
            poll ()
      in
      (d, poll ())

(* The catalogue: tiny1..tiny16 x five schedules x two meshes. Compile
   time grows faster than the layer count (tiny64 with bp,mp,z3 takes
   ~6.7 s), so larger models would leave a run only a handful of misses. *)
let serve_models = Array.init 16 (fun i -> Printf.sprintf "tiny%d" (i + 1))
let serve_schedules = [| "bp"; "mp"; "bp,mp"; "z2"; "bp,mp,z3" |]
let serve_meshes = [| [ ("batch", 2); ("model", 2) ]; [ ("batch", 4); ("model", 2) ] |]
let serve_combos = Array.length serve_schedules * Array.length serve_meshes

let entry_request (k, c) =
  {
    Protocol.default_request with
    Protocol.model = serve_models.(k);
    schedule = serve_schedules.(c mod Array.length serve_schedules);
    mesh = serve_meshes.(c / Array.length serve_schedules);
    budget = 16;
  }

(* First asks come in rounds that each ask every model once, in a seeded
   order. In round r model k gets combo (k + 3r + offset) mod 10, so every
   round spreads the (schedule, mesh) combos evenly over the model sizes,
   and no entry comes back for ten rounds. *)
let new_entry_source rng =
  let offset = Random.State.int rng serve_combos in
  let round = ref (-1) and order = ref [||] and pos = ref 0 in
  fun () ->
    if !pos >= Array.length !order then begin
      incr round;
      if !round >= serve_combos then failwith "perfbench: serve catalogue exhausted";
      order := shuffle rng (Array.init (Array.length serve_models) Fun.id);
      pos := 0
    end;
    let k = !order.(!pos) in
    incr pos;
    (k, (k + (3 * !round) + offset) mod serve_combos)

type serve_state = {
  daemon : daemon;
  client_store : Store.t;
  scratch_store : Store.t;
  prepared : (string, Zoo.prepared) Hashtbl.t;
  oracle : (int * int, string) Hashtbl.t;
  counts : (string, int) Hashtbl.t;
  mutable hits_seen : int;
}

let bump st name =
  Hashtbl.replace st.counts name (1 + Option.value ~default:0 (Hashtbl.find_opt st.counts name))

let count st name = Option.value ~default:0 (Hashtbl.find_opt st.counts name)

let jit_request prepared (req : Protocol.request) =
  let tactics =
    Zoo.tactics_of prepared hardware req.Protocol.budget req.Protocol.schedule
  in
  Schedule.jit ~hardware ~ties:prepared.Zoo.ties
    (Partir_mesh.Mesh.create req.Protocol.mesh)
    prepared.Zoo.func tactics

(* The oracle: the plan digest of an in-process compile of the request. *)
let oracle_digest st entry =
  match Hashtbl.find_opt st.oracle entry with
  | Some d -> d
  | None ->
      let req = entry_request entry in
      let model = req.Protocol.model in
      let prepared =
        match Hashtbl.find_opt st.prepared model with
        | Some p -> p
        | None ->
            let p = Zoo.prepare model in
            Hashtbl.replace st.prepared model p;
            p
      in
      let d = Cache.plan_digest (jit_request prepared req).Schedule.program in
      Hashtbl.replace st.oracle entry d;
      d

(* Checks one reply: a first ask must miss, a repeat must hit, the plan
   must equal the oracle's, and no request may be refused. *)
let check_reply ~plant st ~is_new entry resp =
  let errs = ref [] in
  let fail fmt =
    Printf.ksprintf
      (fun s -> errs := Printf.sprintf "serve %s: %s" (entry_request entry).Protocol.model s :: !errs)
      fmt
  in
  (match resp with
  | Protocol.Ok r ->
      bump st (if r.Protocol.cache_hit then "serve.hits" else "serve.misses");
      if r.Protocol.degraded then bump st "serve.degraded";
      if is_new && r.Protocol.cache_hit then fail "first ask was a cache hit";
      if (not is_new) && not r.Protocol.cache_hit then fail "repeat ask missed the cache";
      let digest = r.Protocol.plan_digest in
      let digest =
        if plant = "digest" && r.Protocol.cache_hit && st.hits_seen = 0 then digest ^ "x"
        else digest
      in
      if r.Protocol.cache_hit then st.hits_seen <- st.hits_seen + 1;
      if digest <> oracle_digest st entry then
        fail "plan digest %s differs from the in-process compile" digest
  | Protocol.Overloaded _ ->
      bump st "serve.shed";
      fail "overloaded"
  | Protocol.Error { category; message } ->
      bump st "serve.errors";
      fail "error %s: %s" category message);
  record_op !errs

(* A request over a raw socket, timed in two parts: connect, then write
   and wait for the reply. *)
let split_request socket req =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 120.;
      let (), connect_ms = timed (fun () -> Unix.connect fd (Unix.ADDR_UNIX socket)) in
      let resp, wait_ms =
        timed (fun () ->
            Protocol.write_request fd req;
            Protocol.read_response fd)
      in
      match resp with
      | Some resp -> (resp, connect_ms, wait_ms)
      | None -> failwith "perfbench: daemon closed the connection")

let plan_key fp = "plan-" ^ fp

let serve_traced ~plant st ledger ~is_new entry =
  let req = entry_request entry in
  let resp, connect_ms, wait_ms = split_request st.daemon.socket req in
  let cls = if is_new then "miss" else "hit" in
  let add = Ledger.add ledger ~cls in
  add "traced" (connect_ms +. wait_ms);
  (match resp with
  | Protocol.Ok r when not is_new ->
      add "hit.connect_ms" connect_ms;
      add "hit.wait_ms" wait_ms;
      add "hit.server_ms" r.Protocol.compile_ms;
      let got, get_ms = timed (fun () -> Store.get st.client_store ~key:(plan_key r.Protocol.fingerprint)) in
      add "store.get_ms" get_ms;
      (match got with
      | Store.Hit payload -> add "cache.decode_ms" (snd (timed (fun () -> Cache.decode_reply payload)))
      | Store.Miss | Store.Quarantined -> ());
      let _, plain_ms = timed (fun () -> Client.request ~socket_path:st.daemon.socket req) in
      add "plain" plain_ms
  | Protocol.Ok r ->
      add "miss.wait_ms" wait_ms;
      add "miss.server_ms" r.Protocol.compile_ms;
      (match Store.get st.client_store ~key:(plan_key r.Protocol.fingerprint) with
      | Store.Hit payload -> (
          match Cache.decode_reply payload with
          | Some stored ->
              let bytes, encode_ms = timed (fun () -> Cache.encode_reply stored) in
              add "cache.encode_ms" encode_ms;
              add "store.put_ms"
                (snd (timed (fun () -> Store.put st.scratch_store ~key:(plan_key r.Protocol.fingerprint) bytes)))
          | None -> ())
      | Store.Miss | Store.Quarantined -> ());
      let prepared, prepare_ms = timed (fun () -> Zoo.prepare req.Protocol.model) in
      add "zoo.prepare_ms" prepare_ms;
      add "cache.fingerprint_ms"
        (snd
           (timed (fun () ->
                Cache.fingerprint ~func:prepared.Zoo.func
                  ~mesh:(Partir_mesh.Mesh.create req.Protocol.mesh)
                  ~schedule:req.Protocol.schedule ~budget:req.Protocol.budget
                  ~hardware:hardware_name)));
      let res, jit_ms = timed (fun () -> jit_request prepared req) in
      add "miss.jit_ms" jit_ms;
      Hashtbl.replace st.oracle entry (Cache.plan_digest res.Schedule.program)
  | Protocol.Overloaded _ | Protocol.Error _ -> ());
  check_reply ~plant st ~is_new entry resp

let serve_run args st =
  let rng = Random.State.make [| args.seed |] in
  let next_new = new_entry_source rng in
  let published = ref [||] in
  (* One block of ten requests, with one first ask at a seeded slot. *)
  let block ledger b =
    let new_slot = if b = 0 then 0 else Random.State.int rng 10 in
    for slot = 0 to 9 do
      let is_new = slot = new_slot in
      let entry =
        if is_new then begin
          let e = next_new () in
          published := Array.append !published [| e |];
          e
        end
        else !published.(Random.State.int rng (Array.length !published))
      in
      if args.trace then serve_traced ~plant:args.plant st ledger ~is_new entry
      else begin
        let resp, ms =
          timed (fun () ->
              Client.request ~socket_path:st.daemon.socket (entry_request entry))
        in
        check_reply ~plant:args.plant st ~is_new entry resp;
        Ledger.add ledger ~cls:(if is_new then "miss" else "hit") "plain" ms
      end
    done
  in
  (* Warm-up, checked but not kept: one block per model, so every model
     size is published before timing starts and the hits draw from the
     same mix in every run. *)
  let warmup = Ledger.create () in
  for b = 0 to Array.length serve_models - 1 do
    block warmup b
  done;
  let ledger = Ledger.create () in
  let deadline = now () +. args.seconds in
  let rec go b =
    probe_if_due ();
    block ledger b;
    if now () < deadline then go (b + 1)
  in
  go (Array.length serve_models);
  ledger

let serve args =
  mkdir_p tmp_root;
  (* Set up five times: each daemon but the last is stopped once ready. *)
  let setups =
    List.init 5 (fun i ->
        let d, ready_s = spawn_daemon i in
        if i < 4 then ignore (stop_daemon d);
        (d, ready_s))
  in
  let daemon = fst (List.nth setups 4) in
  let setup_s = median (List.map snd setups) in
  let running = ref true in
  Fun.protect
    ~finally:(fun () ->
      if !running then ignore (stop_daemon daemon);
      rm_rf tmp_root;
      try Unix.rmdir ".perfbench_tmp" with Unix.Unix_error _ -> ())
    (fun () ->
      let st =
        {
          daemon;
          client_store = fst (Store.open_ daemon.store_dir);
          scratch_store = fst (Store.open_ (Filename.concat tmp_root "scratch-store"));
          prepared = Hashtbl.create 64;
          oracle = Hashtbl.create 256;
          counts = Hashtbl.create 8;
          hits_seen = 0;
        }
      in
      let ledger = serve_run args st in
      let rss = vm_hwm_mb (string_of_int daemon.pid) in
      running := false;
      (match stop_daemon daemon with
      | Unix.WEXITED 0 -> ()
      | _ -> record_op [ "serve: the daemon did not drain and exit cleanly" ]);
      let key = if args.trace then "traced" else "plain" in
      let hit = Ledger.samples ledger ~cls:"hit" key and miss = Ledger.samples ledger ~cls:"miss" key in
      let hit_p50 = median hit and hit_p99 = percentile 0.99 hit and miss_p50 = median miss in
      Printf.printf
        "hit_ms.p50 = %.3f ms, hit_ms.p99 = %.3f ms (n=%d); miss_ms.p50 = %.2f ms (n=%d)\n"
        hit_p50 hit_p99 (List.length hit) miss_p50 (List.length miss);
      let classes = [ "hit"; "miss" ] in
      if not args.trace then
        m "setup_s" "s" setup_s
        :: m "peak_rss_mb" "MB" rss
        :: op_summary ~prefix:"" ledger ~classes "plain"
      else
        let med cls name = m name (List.assoc name per_layer_names) (Ledger.median ledger ~cls name) in
        per_layer_metrics
          ([ m "hit_ms.p50" "ms" hit_p50; m "hit_ms.p99" "ms" hit_p99; m "miss_ms.p50" "ms" miss_p50 ]
          @ List.map (med "hit")
              [ "hit.connect_ms"; "hit.wait_ms"; "hit.server_ms"; "store.get_ms"; "cache.decode_ms" ]
          @ List.map (med "miss")
              [ "miss.wait_ms"; "miss.server_ms"; "store.put_ms"; "cache.encode_ms";
                "cache.fingerprint_ms"; "zoo.prepare_ms"; "miss.jit_ms" ]
          @ List.map
              (fun name -> m name "count" (float_of_int (count st name)))
              [ "serve.hits"; "serve.misses"; "serve.errors"; "serve.shed"; "serve.degraded" ]
          @ op_summary ~prefix:"trace." ledger ~classes "traced"
          @ [
              m "trace.overhead_ratio" "ratio"
                (Ledger.median ledger ~cls:"hit" "traced" /. Ledger.median ledger ~cls:"hit" "plain");
            ]))

(* ====================================================================== *)

let () =
  let args = parse_args ~probe_main in
  Partir_parallel.set_num_domains 1;
  print_header args;
  let measured =
    match args.workload with
    | "partition" -> partition args
    | "search" -> search args
    | _ -> serve args
  in
  let f = speed_factor () in
  Printf.printf "speed factor %.4f (%.0f ms reference / median of %d probes); wall-clock:"
    f reference_probe_ms (List.length !probes);
  let metrics =
    List.map
      (fun mt ->
        match mt.unit with
        | "ms" | "s" ->
            if mt.value <> 0. then Printf.printf " %s=%.6g" mt.name mt.value;
            { mt with value = mt.value *. f }
        | "1/s" -> { mt with value = mt.value /. f }
        | _ -> mt)
      measured
  in
  print_newline ();
  exit (if print_result metrics then 0 else 1)
