open Partir_hlo
module Mesh = Partir_mesh.Mesh
module Lower = Partir_spmd.Lower
module D = Diagnostic

(* {1 CollectiveLint: abstract per-device execution of the collective
   sequence}

   Each device's program is reduced to its ordered sequence of
   communicating collectives ([all_slice] is device-local and excluded);
   a rendezvous simulation then advances a replica group only when every
   member's next event is the same collective over the same group. A
   mismatched, misordered, or wrongly-grouped collective stalls the
   simulation — the deadlock class the fault-injection runtime can only
   observe as a timeout, reported here statically.

   [trace] and [check_traces] are that simulation, kept as the reference.
   [func] does not run it: every device of an SPMD function executes the
   same collective sequence, and traces differ only in their groups,
   which depend on the collective's axis set alone. The replay finishes
   exactly when, for each distinct axis set (a replica-group class),
   every device's group contains itself, names only mesh devices, and
   equals the group of each member — so [func] checks that once per
   class instead of replaying every device. *)

type event = { path : string; desc : string; group : int list }

let op_path parent i (op : Op.t) =
  Printf.sprintf "%s/op#%d(%s)" parent i (Op.kind_name op.kind)

let reduce_name = function
  | Op.Rsum -> "sum"
  | Op.Rmax -> "max"
  | Op.Rmin -> "min"

let pairs_to_string pairs =
  String.concat "," (List.map (fun (a, n) -> Printf.sprintf "%s:%d" a n) pairs)

let dim_axes_to_string dim_axes =
  String.concat ";"
    (Array.to_list
       (Array.mapi
          (fun d pairs ->
            if pairs = [] then ""
            else Printf.sprintf "%d<-{%s}" d (pairs_to_string pairs))
          dim_axes)
     |> List.filter (( <> ) ""))

(* The mesh axes a communicating collective spans. *)
let comm_axes (op : Op.t) =
  match op.kind with
  | Op.All_reduce { axes; _ } | Op.All_to_all { axes; _ } ->
      Some (List.map fst axes)
  | Op.All_gather { dim_axes } | Op.Reduce_scatter { dim_axes; _ } ->
      Some (Array.to_list dim_axes |> List.concat |> List.map fst)
  | _ -> None

(* The communication signature of a collective: what must agree across the
   replica group for the exchange to be well-formed. *)
let describe (op : Op.t) =
  match op.kind with
  | Op.All_reduce { axes; reduce } ->
      Printf.sprintf "all_reduce %s {%s}" (reduce_name reduce)
        (pairs_to_string axes)
  | Op.All_gather { dim_axes } ->
      Printf.sprintf "all_gather %s" (dim_axes_to_string dim_axes)
  | Op.Reduce_scatter { reduce; dim_axes } ->
      Printf.sprintf "reduce_scatter %s %s" (reduce_name reduce)
        (dim_axes_to_string dim_axes)
  | Op.All_to_all { src_dim; dst_dim; axes } ->
      Printf.sprintf "all_to_all %d->%d {%s}" src_dim dst_dim
        (pairs_to_string axes)
  | _ -> Op.kind_name op.kind

(* Recorded (axis, size) pairs of any collective, communicating or not. *)
let recorded_pairs (op : Op.t) =
  match op.kind with
  | Op.All_reduce { axes; _ } | Op.All_to_all { axes; _ } -> axes
  | Op.All_gather { dim_axes }
  | Op.All_slice { dim_axes }
  | Op.Reduce_scatter { dim_axes; _ } ->
      Array.to_list dim_axes |> List.concat
  | _ -> []

(* [path] is forced only when a diagnostic needs it. *)
let check_op_axes ~add ~mesh ~path (op : Op.t) =
  let pairs = recorded_pairs op in
  if pairs <> [] then begin
    let seen = Hashtbl.create 4 in
    List.iter
      (fun (axis, size) ->
        if Hashtbl.mem seen axis then
          add
            (D.error ~code:"CL003" ~path:(Lazy.force path)
               "collective lists mesh axis %S more than once in one group"
               axis)
        else Hashtbl.replace seen axis ();
        if not (Mesh.has_axis mesh axis) then
          add
            (D.error ~code:"CL001" ~path:(Lazy.force path)
               "collective names unknown mesh axis %S (mesh %s)" axis
               (Mesh.to_string mesh))
        else if Mesh.axis_size mesh axis <> size then
          add
            (D.error ~code:"CL002" ~path:(Lazy.force path)
               "collective records size %d for mesh axis %S, mesh has %d"
               size axis (Mesh.axis_size mesh axis)))
      pairs
  end

(* Sorted linear ids of [device]'s replica group over [axes]. *)
let group_ids mesh device axes =
  Mesh.group_peers mesh device axes
  |> List.map (Mesh.linear_of_device mesh)
  |> List.sort_uniq compare

let peers mesh axes d = group_ids mesh (Mesh.device_of_linear mesh d) axes

let trace mesh (f : Func.t) =
  let n = Mesh.num_devices mesh in
  let rec walk parent device acc ops =
    List.fold_left
      (fun (acc, i) (op : Op.t) ->
        let path = op_path parent i op in
        let acc =
          match comm_axes op with
          | Some axes when List.for_all (Mesh.has_axis mesh) axes ->
              { path; desc = describe op; group = group_ids mesh device axes }
              :: acc
          | _ -> acc
        in
        let acc =
          match op.region with
          | Some r -> walk path device acc r.body
          | None -> acc
        in
        (acc, i + 1))
      (acc, 0) ops
    |> fst
  in
  Array.init n (fun d ->
      let device = Mesh.device_of_linear mesh d in
      List.rev (walk f.Func.name device [] f.Func.body))

let group_to_string g = String.concat "," (List.map string_of_int g)

let outside_mesh ~path ~desc ~n group =
  D.error ~code:"CL004" ~path
    "replica group [%s] of %S names devices outside the %d-device mesh"
    (group_to_string group) desc n

let omits_itself ~path ~desc d group =
  D.error ~code:"CL004" ~path
    "device %d executes %S with replica group [%s] that does not include \
     itself"
    d desc (group_to_string group)

let disagree ~path ~desc d m group group_m =
  D.error ~code:"CL004" ~path
    "device %d and device %d execute %S with different replica groups ([%s] \
     vs [%s]) — the groups do not partition the mesh"
    d m desc (group_to_string group) (group_to_string group_m)

let check_traces mesh (traces : event list array) =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let n = Array.length traces in
  if n <> Mesh.num_devices mesh then
    add
      (D.error ~code:"CL004" ~path:"traces"
         "%d device traces for a %d-device mesh" n (Mesh.num_devices mesh));
  (* Replica-group sanity per device: a device must be in its own group and
     every member must exist. *)
  let valid = Array.map (fun _ -> true) traces in
  Array.iteri
    (fun d events ->
      List.iter
        (fun e ->
          let bad_member =
            List.exists (fun m -> m < 0 || m >= n) e.group
          in
          if bad_member then begin
            add (outside_mesh ~path:e.path ~desc:e.desc ~n e.group);
            valid.(d) <- false
          end;
          if not (List.mem d e.group) then begin
            add (omits_itself ~path:e.path ~desc:e.desc d e.group);
            valid.(d) <- false
          end)
        events)
    traces;
  if Array.for_all (fun v -> v) valid then begin
    let queues = Array.map (fun es -> ref es) traces in
    let next d = match !(queues.(d)) with [] -> None | e :: _ -> Some e in
    let progressed = ref true in
    while !progressed do
      progressed := false;
      for d = 0 to n - 1 do
        match next d with
        | Some e
          when List.for_all
                 (fun m ->
                   match next m with
                   | Some em -> em.desc = e.desc && em.group = e.group
                   | None -> false)
                 e.group ->
            List.iter
              (fun m -> queues.(m) := List.tl !(queues.(m)))
              e.group;
            progressed := true
        | _ -> ()
      done
    done;
    (* Anything left is a deadlock; explain the first stuck device. *)
    let stuck = ref None in
    for d = n - 1 downto 0 do
      if next d <> None then stuck := Some d
    done;
    match !stuck with
    | None -> ()
    | Some d -> (
        let e = Option.get (next d) in
        let offender =
          List.find_opt
            (fun m ->
              match next m with
              | Some em -> em.desc <> e.desc || em.group <> e.group
              | None -> true)
            e.group
        in
        match offender with
        | Some m -> (
            match next m with
            | None ->
                add
                  (D.error ~code:"CL006" ~path:e.path
                     "device %d waits on %S with group [%s] but device %d has \
                      already finished its program"
                     d e.desc (group_to_string e.group) m)
            | Some em when em.desc <> e.desc ->
                add
                  (D.error ~code:"CL005" ~path:e.path
                     "mismatched collectives: device %d is at %S while group \
                      member %d is at %S (%s)"
                     d e.desc m em.desc em.path)
            | Some em ->
                add (disagree ~path:e.path ~desc:e.desc d m e.group em.group))
        | None ->
            (* All members agree yet nothing progressed: a cross-group wait
               cycle. *)
            add
              (D.error ~code:"CL005" ~path:e.path
                 "collective wait cycle: device %d is blocked at %S although \
                  every group member agrees on it"
                 d e.desc))
  end;
  D.sort (List.rev !diags)

(* {1 Async-window discipline}

   The communication schedule ([Comm_schedule]) splits every communicating
   collective into an issue and a wait. Three properties must hold for the
   async execution to be sound on real hardware (and they are what the
   plan executor's arena discipline relies on):

   - CL007: issues and waits pair up exactly, within one scope — no wait
     without a live window, no double-issue of a window, no window left
     open at scope end;
   - CL008: nothing reads the collective's result inside the window (the
     transfer has not landed yet);
   - CL009: nothing writes the collective's source or destination buffer
     while the transfer is in flight (the DMA owns both).

   The checker runs over a flat event stream so synthetic streams can
   exercise the failure paths directly; [async_events] derives the stream
   of a real schedule. *)

type async_event =
  | Ev_scope_begin of string
  | Ev_scope_end of string
  | Ev_issue of { window : int; path : string; src : int; dst : int }
  | Ev_wait of { window : int; path : string }
  | Ev_access of { path : string; reads : int list; writes : int list }

type window_info = { w_path : string; w_src : int; w_dst : int }

let check_async (events : async_event list) =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let inflight : (int, window_info) Hashtbl.t = Hashtbl.create 8 in
  let scopes = ref [] in
  List.iter
    (fun ev ->
      match ev with
      | Ev_scope_begin _ -> scopes := ref [] :: !scopes
      | Ev_scope_end path ->
          (match !scopes with
          | top :: rest ->
              List.iter
                (fun w ->
                  match Hashtbl.find_opt inflight w with
                  | Some i ->
                      add
                        (D.error ~code:"CL007" ~path:i.w_path
                           "collective issued but never waited before the end \
                            of scope %s"
                           path);
                      Hashtbl.remove inflight w
                  | None -> ())
                !top;
              scopes := rest
          | [] ->
              add
                (D.error ~code:"CL007" ~path "scope end without a scope begin"))
      | Ev_issue { window; path; src; dst } -> (
          (match !scopes with
          | top :: _ -> top := window :: !top
          | [] ->
              add (D.error ~code:"CL007" ~path "issue outside any scope"));
          match Hashtbl.find_opt inflight window with
          | Some prev ->
              add
                (D.error ~code:"CL007" ~path
                   "window #%d issued twice (previous issue at %s)" window
                   prev.w_path)
          | None ->
              Hashtbl.replace inflight window
                { w_path = path; w_src = src; w_dst = dst })
      | Ev_wait { window; path } -> (
          match Hashtbl.find_opt inflight window with
          | Some _ -> Hashtbl.remove inflight window
          | None ->
              add
                (D.error ~code:"CL007" ~path
                   "wait on window #%d which has no in-flight issue" window))
      | Ev_access { path; reads; writes } ->
          Hashtbl.iter
            (fun window i ->
              if List.mem i.w_dst reads then
                add
                  (D.error ~code:"CL008" ~path
                     "reads %%%d before the wait of in-flight collective \
                      window #%d (issued at %s)"
                     i.w_dst window i.w_path);
              List.iter
                (fun w ->
                  if w = i.w_src || w = i.w_dst then
                    add
                      (D.error ~code:"CL009" ~path
                         "writes buffer %%%d of in-flight collective window \
                          #%d (issued at %s) — the transfer owns it until \
                          the wait"
                         w window i.w_path))
                writes)
            inflight)
    events;
  List.iter
    (fun w ->
      match Hashtbl.find_opt inflight w with
      | Some i ->
          add
            (D.error ~code:"CL007" ~path:i.w_path
               "collective issued but never waited");
          Hashtbl.remove inflight w
      | None -> ())
    (Hashtbl.fold (fun w _ acc -> w :: acc) inflight []);
  D.sort (List.rev !diags)

module Comm_schedule = Partir_spmd.Comm_schedule

let async_events (sch : Comm_schedule.t) =
  let value_ids vs = List.map (fun (v : Value.t) -> v.Value.id) vs in
  let path_of (op : Op.t) =
    match op.Op.results with
    | (r : Value.t) :: _ ->
        Printf.sprintf "%s->%%%d" (Op.kind_name op.Op.kind) r.Value.id
    | [] -> Op.kind_name op.Op.kind
  in
  let events = ref [] in
  let push e = events := e :: !events in
  let rec walk name (s : Comm_schedule.scope) =
    push (Ev_scope_begin name);
    List.iter
      (fun item ->
        match item with
        | Comm_schedule.Compute op ->
            push
              (Ev_access
                 {
                   path = path_of op;
                   reads = value_ids (Comm_schedule.reads_of op);
                   writes = value_ids op.Op.results;
                 })
        | Comm_schedule.Enter (op, sub) ->
            push
              (Ev_access
                 {
                   path = path_of op;
                   reads = value_ids (Comm_schedule.reads_of op);
                   writes = value_ids op.Op.results;
                 });
            walk (path_of op) sub
        | Comm_schedule.Issue slot ->
            let e = s.Comm_schedule.entries.(slot) in
            let op = e.Comm_schedule.op in
            let src =
              match op.Op.operands with
              | (v : Value.t) :: _ -> v.Value.id
              | [] -> -1
            in
            let dst =
              match op.Op.results with
              | (v : Value.t) :: _ -> v.Value.id
              | [] -> -1
            in
            push
              (Ev_issue
                 { window = e.Comm_schedule.index; path = path_of op; src; dst })
        | Comm_schedule.Wait slot ->
            let e = s.Comm_schedule.entries.(slot) in
            push
              (Ev_wait
                 {
                   window = e.Comm_schedule.index;
                   path = path_of e.Comm_schedule.op;
                 }))
      s.Comm_schedule.items;
    push (Ev_scope_end name);
    ()
  in
  walk "top" sch.Comm_schedule.top;
  List.rev !events

let schedule (p : Lower.program) =
  check_async (async_events (Comm_schedule.of_program p))

(* One pass over the function: the static per-op axis checks, and the
   replica-group classes — each distinct sorted axis set of a
   communicating collective, with the path and signature of its first
   collective, in program order. *)
let scan ~mesh (f : Func.t) =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let seen = Hashtbl.create 8 in
  let classes = ref [] in
  let rec walk parent ops =
    List.iteri
      (fun i (op : Op.t) ->
        let path = lazy (op_path (Lazy.force parent) i op) in
        check_op_axes ~add ~mesh ~path op;
        (match comm_axes op with
        | Some axes ->
            let axes = List.sort compare axes in
            if not (Hashtbl.mem seen axes) then begin
              Hashtbl.add seen axes ();
              classes := (axes, Lazy.force path, describe op) :: !classes
            end
        | None -> ());
        match op.region with Some r -> walk path r.body | None -> ())
      ops
  in
  walk (Lazy.from_val f.Func.name) f.Func.body;
  (D.sort (List.rev !diags), List.rev !classes)

(* The partition property, once per class: scan devices in order and
   report the first that names a device outside the mesh, omits itself,
   or disagrees with a member. Groups are interned so each agreement test
   is one integer compare: O(devices x group size) per class. *)
let check_class ~n ~group (axes, path, desc) =
  let groups = Array.init n (group axes) in
  let interned = Hashtbl.create 16 in
  let id =
    Array.map
      (fun g ->
        match Hashtbl.find_opt interned g with
        | Some i -> i
        | None ->
            let i = Hashtbl.length interned in
            Hashtbl.add interned g i;
            i)
      groups
  in
  let rec from d =
    if d >= n then None
    else
      let g = groups.(d) in
      if List.exists (fun m -> m < 0 || m >= n) g then
        Some (outside_mesh ~path ~desc ~n g)
      else if not (List.mem d g) then Some (omits_itself ~path ~desc d g)
      else
        match List.find_opt (fun m -> id.(m) <> id.(d)) g with
        | Some m -> Some (disagree ~path ~desc d m g groups.(m))
        | None -> from (d + 1)
  in
  from 0

let func ?group ~mesh (f : Func.t) =
  let static, classes = scan ~mesh f in
  if D.errors static <> [] then static
  else
    let group = Option.value group ~default:(peers mesh) in
    let n = Mesh.num_devices mesh in
    static @ D.sort (List.filter_map (check_class ~n ~group) classes)

let replay ~mesh (f : Func.t) =
  let static, _ = scan ~mesh f in
  if D.errors static <> [] then static
  else static @ check_traces mesh (trace mesh f)

let program (p : Lower.program) = func ~mesh:p.Lower.mesh p.Lower.func
