open Partir_hlo
module Mesh = Partir_mesh.Mesh

type sop = {
  mutable op : Op.t;
  mutable nest : Action.entry list;
  mutable region_body : sop list;
}

type t = {
  name : string;
  mesh : Mesh.t;
  params : Value.t list;
  mutable body : sop list;
  mutable results : Value.t list;
}

exception Action_error of string

let action_errorf fmt = Format.kasprintf (fun s -> raise (Action_error s)) fmt

(* Debug-mode assertion hook, run once per batch of actions, after it is
   committed. Installed by
   [Partir_analysis.Analysis] (kept as a ref to avoid a dependency cycle:
   the analyses consume this module). *)
let debug_hook : (t -> unit) ref = ref (fun _ -> ())

let rec stage_op (op : Op.t) =
  let region_body =
    match op.region with
    | None -> []
    | Some r -> List.map stage_op r.body
  in
  { op; nest = []; region_body }

let of_func mesh (f : Func.t) =
  {
    name = f.name;
    mesh;
    params = f.params;
    body = List.map stage_op f.body;
    results = f.results;
  }

let rec unstage_op (s : sop) : Op.t =
  match s.op.region with
  | None -> s.op
  | Some r ->
      { s.op with region = Some { r with body = List.map unstage_op s.region_body } }

let to_func_unchecked t =
  {
    Func.name = t.name;
    params = t.params;
    body = List.map unstage_op t.body;
    results = t.results;
  }

let to_func t =
  let f = to_func_unchecked t in
  Func.verify f;
  f

let rec copy_sop (s : sop) =
  { op = s.op; nest = s.nest; region_body = List.map copy_sop s.region_body }

let copy t = { t with body = List.map copy_sop t.body }

let nest_axes s = List.map (fun (e : Action.entry) -> e.Action.axis) s.nest

let entry_on s axis =
  List.find_opt (fun (e : Action.entry) -> e.Action.axis = axis) s.nest

let rec all_sops_of_list sops =
  List.concat_map (fun s -> s :: all_sops_of_list s.region_body) sops

let all_sops t = all_sops_of_list t.body

(* Where a seed can be inserted: the top-level body, or a For region body. *)
type scope =
  | Top
  | Region of sop  (** the [For] sop owning the region *)

let scope_key = function Top -> -1 | Region s -> s.op.Op.id

let scope_body t = function Top -> t.body | Region s -> s.region_body

let set_scope_body t scope body =
  match scope with
  | Top -> t.body <- body
  | Region s -> s.region_body <- body

(* Visit every scope parameter and staged op in program order, a [For]'s
   region parameters and body right after the [For] itself. *)
let iter_defs t ~param ~sop =
  let rec go scope params body =
    List.iter (param scope) params;
    List.iter
      (fun (s : sop) ->
        sop scope s;
        match s.op.region with
        | Some r -> go (Region s) r.params s.region_body
        | None -> ())
      body
  in
  go Top t.params t.body

type action =
  | Tile of { value : Value.t; dim : int; axis : string }
  | Atomic of { value : Value.t; axis : string }
  | Tile_by of {
      value : Value.t;
      axis : string;
      choose : (int * string) list -> int option;
    }

(* Where a seed goes: at the start of a scope (the seeded value is one of
   its parameters) or right after the op producing the seeded value. Keys
   are op ids ([scope_key] for scope starts). *)
type anchor = Start of int | After of int

(* A value's definition: a parameter of [scope], or result [i] of a sop. *)
type site = { scope : scope; producer : (sop * int) option }

(* One batch of actions against one module. The index is built in a
   single walk and kept current as seeds are resolved, so every action
   sees the seeds of earlier actions in the batch; nothing touches the
   module until [commit]. *)
type batch = {
  sites : (int, site) Hashtbl.t;
      (** value id -> definition, for the actions' targets and every
          [Identity] result: the only values a seed chain passes through *)
  succ : (int, sop) Hashtbl.t;
      (** value id -> first [Identity] op (program order) consuming it: the
          next link of the value's identity(-seed/tag) chain *)
  pending : (anchor, sop list) Hashtbl.t;  (** new seeds, latest first *)
  touched : (int, scope) Hashtbl.t;  (** scopes receiving seeds *)
  subst : (int, Value.t) Hashtbl.t;  (** seeded value id -> seed result *)
}

let target = function
  | Tile { value; _ } | Atomic { value; _ } | Tile_by { value; _ } -> value

let index t actions =
  let targets =
    List.fold_left
      (fun acc a -> Value.Set.add (target a).Value.id acc)
      Value.Set.empty actions
  in
  let b =
    {
      sites = Hashtbl.create 256;
      succ = Hashtbl.create 256;
      pending = Hashtbl.create 64;
      touched = Hashtbl.create 4;
      subst = Hashtbl.create 64;
    }
  in
  iter_defs t
    ~param:(fun scope (p : Value.t) ->
      (* Seeds go into non-empty scopes only. *)
      if Value.Set.mem p.Value.id targets && scope_body t scope <> [] then
        Hashtbl.replace b.sites p.Value.id { scope; producer = None })
    ~sop:(fun scope s ->
      let identity =
        match (s.op.kind, s.op.operands) with
        | Op.Identity, [ o ] ->
            if not (Hashtbl.mem b.succ o.Value.id) then
              Hashtbl.add b.succ o.Value.id s;
            true
        | _ -> false
      in
      List.iteri
        (fun i (r : Value.t) ->
          if identity || Value.Set.mem r.Value.id targets then
            Hashtbl.replace b.sites r.Value.id { scope; producer = Some (s, i) })
        s.op.results);
  b

(* Follow the identity chain rooted at [value] to its end, so a new action
   applies below earlier actions on the same value: later tactics see (and
   can never undo) earlier decisions, and an [atomic] inserted after a tile
   protects the consumer-facing end of the chain. *)
let rec chain_end b (value : Value.t) =
  match Hashtbl.find_opt b.succ value.Value.id with
  | Some s -> chain_end b (List.hd s.op.results)
  | None -> value

(* The (dim, axis) tilings [value]'s producer and its identity chain
   expose, outermost link first. *)
let dim_axes b (value : Value.t) =
  let producer_tilings (v : Value.t) =
    match Hashtbl.find_opt b.sites v.Value.id with
    | Some { producer = Some (s, i); _ } ->
        List.filter_map
          (fun (e : Action.entry) ->
            match e.Action.result_actions.(i) with
            | Action.Tile d -> Some (d, e.Action.axis)
            | Action.Reduce _ | Action.Any -> None)
          s.nest
    | Some { producer = None; _ } | None -> []
  in
  let rec follow (v : Value.t) acc =
    let acc = acc @ producer_tilings v in
    match Hashtbl.find_opt b.succ v.Value.id with
    | Some s -> follow (List.hd s.op.results) acc
    | None -> acc
  in
  follow value []

let add_seed t b ~(value : Value.t) ~(entry : Action.entry) =
  let value = chain_end b value in
  let op = Op.make Op.Identity [ value ] () in
  let seed = { op; nest = [ entry ]; region_body = [] } in
  let site =
    match Hashtbl.find_opt b.sites value.Value.id with
    | Some site -> site
    | None ->
        action_errorf "value %%%d (%s) not found in module %s" value.Value.id
          value.Value.name t.name
  in
  let anchor =
    match site.producer with
    | None -> Start (scope_key site.scope)
    | Some (s, _) -> After s.op.Op.id
  in
  let result = List.hd op.results in
  Hashtbl.replace b.pending anchor
    (seed :: Option.value ~default:[] (Hashtbl.find_opt b.pending anchor));
  Hashtbl.replace b.touched (scope_key site.scope) site.scope;
  Hashtbl.replace b.sites result.Value.id
    { scope = site.scope; producer = Some (seed, 0) };
  Hashtbl.replace b.succ value.Value.id seed;
  Hashtbl.replace b.subst value.Value.id result;
  result

let resolve_tile t b ~value ~dim ~axis =
  if not (Mesh.has_axis t.mesh axis) then
    action_errorf "tile: unknown mesh axis %S in mesh %s" axis
      (Mesh.to_string t.mesh);
  let size = Mesh.axis_size t.mesh axis in
  let shape = value.Value.ty.Value.shape in
  let rank = Partir_tensor.Shape.rank shape in
  if dim < 0 || dim >= rank then
    action_errorf "tile: dim %d out of range for %%%s (rank %d)" dim
      value.Value.name rank;
  (* Deep tiling: the new axis must divide the residual chunk left by the
     tilings already applied to this dim by OTHER axes (re-tiling onto the
     same axis is a resharding conversion, not a deepening). *)
  let existing =
    List.fold_left
      (fun acc (d, a) ->
        if d = dim && a <> axis then acc * Mesh.axis_size t.mesh a else acc)
      1 (dim_axes b value)
  in
  if shape.(dim) mod (size * existing) <> 0 then
    action_errorf
      "tile: dim %d of %%%d (%s) has size %d (already tiled %dx), not \
       divisible by mesh axis %S of size %d"
      dim value.Value.id value.Value.name shape.(dim) existing axis size;
  add_seed t b ~value
    ~entry:
      {
        Action.axis;
        operand_dims = [| Some dim |];
        result_actions = [| Action.Tile dim |];
      }

let resolve t b = function
  | Tile { value; dim; axis } -> resolve_tile t b ~value ~dim ~axis
  | Tile_by { value; axis; choose } -> (
      match choose (dim_axes b value) with
      | Some dim -> resolve_tile t b ~value ~dim ~axis
      | None -> chain_end b value)
  | Atomic { value; axis } ->
      if not (Mesh.has_axis t.mesh axis) then
        action_errorf "atomic: unknown mesh axis %S" axis;
      add_seed t b ~value
        ~entry:
          {
            Action.axis;
            operand_dims = [| None |];
            result_actions = [| Action.Any |];
          }

(* Splice every pending seed in after its anchor (a later seed on the same
   anchor lands closer to it, as if inserted one at a time) and redirect
   each seeded value's uses in its scope to the end of its new seed chain.
   Regions are closed, so only the touched scopes' ops and terminators can
   use a seeded value; the new seeds' own operands are left alone. *)
let commit t b =
  let rec resolve_value (v : Value.t) =
    match Hashtbl.find_opt b.subst v.Value.id with
    | Some v' -> resolve_value v'
    | None -> v
  in
  let seeded (v : Value.t) = Hashtbl.mem b.subst v.Value.id in
  let seeds_at anchor =
    Option.value ~default:[] (Hashtbl.find_opt b.pending anchor)
  in
  let rec expand (s : sop) =
    s :: List.concat_map expand (seeds_at (After s.op.Op.id))
  in
  Hashtbl.iter
    (fun key scope ->
      let body = scope_body t scope in
      List.iter
        (fun (s : sop) ->
          if List.exists seeded s.op.operands then
            s.op <- { s.op with operands = List.map resolve_value s.op.operands })
        body;
      (match scope with
      | Top -> t.results <- List.map resolve_value t.results
      | Region s -> (
          match s.op.region with
          | Some r ->
              s.op <-
                {
                  s.op with
                  region = Some { r with yields = List.map resolve_value r.yields };
                }
          | None -> ()));
      set_scope_body t scope
        (List.concat_map expand (seeds_at (Start key))
        @ List.concat_map expand body))
    b.touched

let apply t actions =
  match actions with
  | [] -> []
  | _ ->
      let b = index t actions in
      let results = List.map (resolve t b) actions in
      commit t b;
      !debug_hook t;
      results

let tile t ~value ~dim ~axis = List.hd (apply t [ Tile { value; dim; axis } ])
let atomic t ~value ~axis = List.hd (apply t [ Atomic { value; axis } ])

(* Upfront divisibility validation of every loop-nest entry, on both the
   operand and the result side. Downstream consumers do truncating integer
   division on these dimensions (SPMD lowering's [gather_offsets], the
   temporal interpreter's [slice_operand]), so an illegal nest would
   silently drop rows; reject it here with op id, dim and axis instead.
   Propagation ([Propagate.entry_legal]) maintains this invariant for
   nests it derives — this is the backstop for hand-built or corrupted
   nests, called from [Lower.lower] and [Temporal.run_general]. *)
let validate t =
  let check ~side ~op_id ~(v : Value.t) ~dim ~axes =
    (* Dedupe: a re-tiling conversion may mention an axis twice; it still
       slices the dim by that axis size once. *)
    let axes = List.sort_uniq compare axes in
    let sizes = List.map (fun a -> Mesh.axis_size t.mesh a) axes in
    let total = List.fold_left ( * ) 1 sizes in
    let size = v.Value.ty.Value.shape.(dim) in
    if size mod total <> 0 then
      action_errorf
        "invalid nest: op %%%d: %s %%%d%s dim %d (size %d) is not divisible \
         by mesh axis%s %s (product %d)"
        op_id side v.Value.id
        (if v.Value.name = "" then "" else " (" ^ v.Value.name ^ ")")
        dim size
        (if List.length axes > 1 then "es" else "")
        (String.concat "*"
           (List.map2 (fun a s -> Printf.sprintf "%S:%d" a s) axes sizes))
        total
  in
  List.iter
    (fun (s : sop) ->
      let op_id = s.op.Op.id in
      let collect values dims_of_entry side =
        List.iteri
          (fun i (v : Value.t) ->
            let by_dim = Hashtbl.create 4 in
            List.iter
              (fun (e : Action.entry) ->
                match dims_of_entry e i with
                | Some d ->
                    Hashtbl.replace by_dim d
                      (e.Action.axis
                      :: Option.value ~default:[]
                           (Hashtbl.find_opt by_dim d))
                | None -> ())
              s.nest;
            Hashtbl.iter
              (fun dim axes -> check ~side ~op_id ~v ~dim ~axes)
              by_dim)
          values
      in
      collect s.op.Op.operands
        (fun e i ->
          if i < Array.length e.Action.operand_dims then
            e.Action.operand_dims.(i)
          else None)
        "operand";
      collect s.op.Op.results
        (fun e i ->
          if i < Array.length e.Action.result_actions then
            match e.Action.result_actions.(i) with
            | Action.Tile d -> Some d
            | Action.Reduce _ | Action.Any -> None
          else None)
        "result")
    (all_sops t)

let find_value t =
  let names = Hashtbl.create 256 in
  let add (v : Value.t) =
    if not (Hashtbl.mem names v.Value.name) then Hashtbl.add names v.Value.name v
  in
  iter_defs t ~param:(fun _ -> add) ~sop:(fun _ s -> List.iter add s.op.results);
  fun name -> Hashtbl.find_opt names name

let collect_tags t =
  List.concat_map
    (fun (s : sop) ->
      List.filter_map
        (fun (v : Value.t) ->
          if v.Value.name = "" then None else Some (v.Value.name, v))
        s.op.results)
    (all_sops t)

let pp ppf t =
  let f = to_func t in
  let names = Printer.build_names f in
  Format.fprintf ppf "staged @%s mesh=%s {@\n" t.name (Mesh.to_string t.mesh);
  let rec print_sops indent sops =
    List.iter
      (fun (s : sop) ->
        let nest_str =
          match s.nest with
          | [] -> ""
          | nest ->
              " in "
              ^ String.concat " "
                  (List.map
                     (fun (e : Action.entry) ->
                       Printf.sprintf "loop %S [%s]" e.Action.axis
                         (String.concat ", "
                            (Array.to_list
                               (Array.map Action.to_string
                                  e.Action.result_actions))))
                     nest)
        in
        let op_str = Printer.op_to_string ~names (unstage_op s) in
        (* Only print the head line for region ops; bodies printed below. *)
        let head = List.hd (String.split_on_char '\n' op_str) in
        Format.fprintf ppf "%s%s%s@\n" indent head nest_str;
        if s.region_body <> [] then begin
          print_sops (indent ^ "  ") s.region_body;
          Format.fprintf ppf "%s}@\n" indent
        end)
      sops
  in
  print_sops "  " t.body;
  let rets =
    String.concat ", " (List.map (fun (v : Value.t) -> names v.Value.id) t.results)
  in
  Format.fprintf ppf "  return %s@\n}" rets

let to_string t = Format.asprintf "%a" pp t
