open Partir_tensor
open Partir_hlo
open Partir_core
module Mesh = Partir_mesh.Mesh
module Census = Partir_spmd.Census
module Lower = Partir_spmd.Lower
module Cost_model = Partir_sim.Cost_model

type input_spec =
  | Dim of int
  | First_divisible
  | Replicated
  | Infer

type manual = {
  label : string;
  axis : string;
  inputs : (string * input_spec) list;
  by_name : (string -> Shape.t -> input_spec) option;
  tags : (string * input_spec) list;
}

type tactic =
  | Manual of manual
  | Automatic of {
      label : string;
      axes : string list;
      search : Staged.t -> axes:string list -> unit;
    }

let manual ?(tags = []) ?by_name ~label ~axis inputs =
  Manual { label; axis; inputs; by_name; tags }

type tactic_report = {
  label : string;
  census : Census.t;
  conflicts : Propagate.conflict list;
  seconds : float;
  estimate : Cost_model.estimate option;
}

type result = {
  staged : Staged.t;
  program : Lower.program;
  reports : tactic_report list;
  partition_seconds : float;
  input_shardings : (string * Partir_spmd.Layout.t) list;
  output_shardings : Partir_spmd.Layout.t list;
}

(* partir.FIRST_DIVISIBLE_DIM: the first divisible dimension that earlier
   tactics have not already sharded — ZeRO shards "the remaining available
   dimensions" (paper §3), composing with Megatron sharding instead of
   deep-tiling the same dimension. Already-sharded dims come from the
   inferred arrival layout (covering both seeds and propagation-inferred
   shardings); if every divisible dim is sharded, the first one is deep
   tiled. *)
let first_divisible_dim ~tiled (v : Value.t) ~size =
  let shape = v.Value.ty.Value.shape in
  let rec go d fallback =
    if d >= Shape.rank shape then fallback
    else if shape.(d) mod size = 0 && shape.(d) >= size then
      if List.mem d tiled then go (d + 1) (if fallback = None then Some d else fallback)
      else Some d
    else go (d + 1) fallback
  in
  go 0 None

let spec_action staged ~arrivals ~axis (v : Value.t) spec =
  let size = Mesh.axis_size staged.Staged.mesh axis in
  match spec with
  | Infer -> None
  | Replicated -> Some (Staged.Atomic { value = v; axis })
  | Dim dim -> Some (Staged.Tile { value = v; dim; axis })
  | First_divisible ->
      let arrival = Hashtbl.find_opt (Lazy.force arrivals) v.Value.id in
      let choose current =
        let tiled =
          match arrival with
          | Some layout ->
              List.concat
                (List.mapi
                   (fun d axes -> if axes <> [] then [ d ] else [])
                   (Array.to_list layout))
          | None -> List.map fst current
        in
        first_divisible_dim ~tiled v ~size
      in
      Some (Staged.Tile_by { value = v; axis; choose })

(* All of a tactic's seeds go in as one {!Staged.apply} batch: parameters
   through the [by_name] callback, then explicit inputs, then tags. *)
let apply_manual_seeds staged (m : manual) =
  (* Arrival layouts as of the start of this tactic (lazy: only computed
     when a First_divisible spec needs them). *)
  let arrivals =
    lazy
      (let tbl = Hashtbl.create 64 in
       List.iter2
         (fun (p : Value.t) layout -> Hashtbl.replace tbl p.Value.id layout)
         staged.Staged.params
         (Lower.arrival_layouts staged);
       tbl)
  in
  let action = spec_action staged ~arrivals ~axis:m.axis in
  (* Callback over all parameters first; explicit entries override. *)
  let from_callback =
    match m.by_name with
    | None -> []
    | Some f ->
        List.filter_map
          (fun (p : Value.t) ->
            if List.mem_assoc p.Value.name m.inputs then None
            else action p (f p.Value.name p.Value.ty.Value.shape))
          staged.Staged.params
  in
  let find = Staged.find_value staged in
  let named what entries =
    List.filter_map
      (fun (name, spec) ->
        match find name with
        | Some v -> action v spec
        | None ->
            raise
              (Staged.Action_error
                 (Printf.sprintf "schedule %s: no %s %S" m.label what name)))
      entries
  in
  let inputs = named "input named" m.inputs in
  let tags = named "tagged value" m.tags in
  ignore (Staged.apply staged (from_callback @ inputs @ tags))

let jit ?hardware ?(ties = []) ?(single_tactic = false) mesh (f : Func.t)
    (tactics : tactic list) =
  let t_start = Unix.gettimeofday () in
  let staged = Staged.of_func mesh f in
  let reports = ref [] in
  (* Each tactic's report lowers the module as that tactic left it; the
     last one is already the final program. *)
  let last = ref None in
  let snapshot label conflicts t0 =
    let program = Lower.lower ~ties staged in
    last := Some program;
    let census = Census.of_program program in
    let estimate =
      Option.map (fun hw -> Cost_model.run Cost_model.analytic hw program) hardware
    in
    reports :=
      {
        label;
        census;
        conflicts;
        seconds = Unix.gettimeofday () -. t0;
        estimate;
      }
      :: !reports
  in
  if single_tactic then begin
    (* PartIR-st: amalgamate all manual seeds, propagate once. *)
    let t0 = Unix.gettimeofday () in
    List.iter
      (function
        | Manual m -> apply_manual_seeds staged m
        | Automatic { axes; search; _ } -> search staged ~axes)
      tactics;
    let conflicts = Propagate.run staged in
    snapshot "single-tactic" conflicts t0
  end
  else
    List.iter
      (fun tactic ->
        let t0 = Unix.gettimeofday () in
        match tactic with
        | Manual m ->
            apply_manual_seeds staged m;
            let conflicts = Propagate.run staged in
            snapshot m.label conflicts t0
        | Automatic { label; axes; search } ->
            search staged ~axes;
            let conflicts = Propagate.run staged in
            snapshot label conflicts t0)
      tactics;
  let program =
    match !last with Some p -> p | None -> Lower.lower ~ties staged
  in
  let partition_seconds = Unix.gettimeofday () -. t_start in
  {
    staged;
    program;
    reports = List.rev !reports;
    partition_seconds;
    input_shardings =
      List.map2
        (fun (p : Value.t) l -> (p.Value.name, l))
        staged.Staged.params program.Lower.input_layouts;
    output_shardings = program.Lower.output_layouts;
  }
