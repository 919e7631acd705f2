(** Human-readable plan reports.

    Renders a join sequence with its per-join cost [H_i], intermediate
    size [N_i], back-edge count and access path, in the style of an
    EXPLAIN output — for the CLI and the examples. Works over any cost
    domain via the usual functor. *)

module Make (C : Cost.S) = struct
  module I = Nl.Make (C)

  let cell c =
    let l = C.to_log2 c in
    if Float.abs l <= 40.0 && Float.is_finite l then Format.asprintf "%a" C.pp c
    else Printf.sprintf "2^%.1f" l

  let infeasible_line = "infeasible: no cartesian-product-free join sequence"

  (** [render inst seq] formats the execution of [seq] step by step.
      The empty sequence — what {!Opt.Make.dp_no_cartesian} and
      {!Ccp.Make.dp_connected} return on a disconnected query graph —
      renders as an explicit infeasibility block instead of crashing. *)
  let render (inst : I.t) (seq : int array) =
    if Array.length seq = 0 then
      Printf.sprintf "%s\n  (the query graph on %d relation(s) is disconnected: every join\n   sequence must cross a cartesian product)\n"
        infeasible_line (I.n inst)
    else
    let h, ns = I.profile inst seq in
    let buf = Buffer.create 512 in
    Buffer.add_string buf
      (Printf.sprintf "Join sequence (%d relations), total cost %s\n" (Array.length seq)
         (cell (Array.fold_left C.add C.zero h)));
    Buffer.add_string buf
      (Printf.sprintf "  start with R%d (%s tuples)\n" seq.(0) (cell inst.I.sizes.(seq.(0))));
    for i = 1 to Array.length seq - 1 do
      let v = seq.(i) in
      let b = I.back_edges inst seq (i + 1) in
      let tag = if b = 0 then "CARTESIAN with" else Printf.sprintf "join (%d preds)" b in
      Buffer.add_string buf
        (Printf.sprintf "  %2d. %s R%-3d  H_%d = %-14s N_%d = %s\n" i tag v i (cell h.(i - 1)) i
           (cell ns.(i - 1)))
    done;
    Buffer.contents buf

  let print inst seq = print_string (render inst seq)

  (** One-line summary: cost + sequence (or the infeasibility marker
      for the empty sequence). *)
  let summary (inst : I.t) (seq : int array) =
    if Array.length seq = 0 then Printf.sprintf "cost=inf seq=[] (%s)" infeasible_line
    else
      Printf.sprintf "cost=%s seq=[%s]"
        (cell (I.cost inst seq))
        (String.concat " " (Array.to_list (Array.map string_of_int seq)))
end

module Log = Make (Log_cost)
module Rat = Make (Rat_cost)
