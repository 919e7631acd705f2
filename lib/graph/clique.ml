(* Exact maximum clique: branch and bound with greedy colouring bound
   (Tomita & Seki style, simplified). State sets are bitsets. *)

(* Greedy colouring of the candidate set [p], capped: a vertex whose
   colour bound is <= [cap] cannot extend the incumbent clique (a
   clique inside its colour-class prefix has size <= its colour), so it
   is left out of the returned branching order entirely — it stays in
   [p] as a candidate for deeper levels. Returned vertices are in
   decreasing colour order (we prepend in increasing colour). *)
let colour_order g ~cap p =
  let order = ref [] in
  let uncoloured = Bitset.copy p in
  let colour = ref 0 in
  while not (Bitset.is_empty uncoloured) do
    incr colour;
    (* take a maximal independent-in-colour-class subset *)
    let avail = Bitset.copy uncoloured in
    while not (Bitset.is_empty avail) do
      match Bitset.choose avail with
      | None -> ()
      | Some v ->
          Bitset.remove avail v;
          Bitset.remove uncoloured v;
          (* v's neighbours cannot share its colour *)
          Bitset.iter (fun u -> if Bitset.mem avail u then Bitset.remove avail u) (Ugraph.neighbors g v);
          if !colour > cap then order := (v, !colour) :: !order
    done
  done;
  !order

let c_nodes = Obs.counter "clique.nodes"
let c_prunes = Obs.counter "clique.colour_prunes"

(* Branch and bound: [current] has [depth] vertices, leaves (empty
   candidate set) are recorded, and the search stops once a clique of
   the [target] size is found. *)
let max_clique_bounded g target =
  let n = Ugraph.vertex_count g in
  let best = ref [] in
  let best_size = ref 0 in
  let stop = ref false in
  let record c =
    let l = List.length c in
    if l > !best_size then begin
      best := c;
      best_size := l;
      match target with Some t when l >= t -> stop := true | _ -> ()
    end
  in
  let rec expand current depth p =
    if not !stop then begin
      Obs.incr c_nodes;
      let coloured = colour_order g ~cap:(!best_size - depth) p in
      (* candidates whose greedy colour was at or below the cap never made
         it into [coloured]: each is one colour-bound prune *)
      Obs.add c_prunes (Bitset.cardinal p - List.length coloured);
      (* coloured is in decreasing colour order *)
      let p = Bitset.copy p in
      List.iter
        (fun (v, c) ->
          if (not !stop) && depth + c > !best_size then begin
            if Bitset.mem p v then begin
              let current' = v :: current in
              let p' = Bitset.inter p (Ugraph.neighbors g v) in
              if Bitset.is_empty p' then record current'
              else expand current' (depth + 1) p';
              Bitset.remove p v
            end
          end)
        coloured
    end
  in
  expand [] 0 (Bitset.full n);
  !best

let max_clique g = List.sort Stdlib.compare (max_clique_bounded g None)

let clique_number g = List.length (max_clique_bounded g None)
let has_clique g k = k <= 0 || List.length (max_clique_bounded g (Some k)) >= k

let greedy_clique g =
  let n = Ugraph.vertex_count g in
  let by_degree = List.init n (fun v -> v) in
  let by_degree = List.sort (fun a b -> Stdlib.compare (Ugraph.degree g b) (Ugraph.degree g a)) by_degree in
  let clique = ref [] in
  List.iter
    (fun v -> if List.for_all (fun u -> Ugraph.has_edge g u v) !clique then clique := v :: !clique)
    by_degree;
  List.sort Stdlib.compare !clique

let is_maximal g vs =
  Ugraph.is_clique g vs
  &&
  let n = Ugraph.vertex_count g in
  let rec candidate v =
    if v >= n then false
    else if (not (List.mem v vs)) && List.for_all (fun u -> Ugraph.has_edge g u v) vs then true
    else candidate (v + 1)
  in
  not (candidate 0)

let maximal_cliques ?limit g =
  let n = Ugraph.vertex_count g in
  let out = ref [] in
  let count = ref 0 in
  let full = match limit with None -> max_int | Some l -> l in
  let exception Done in
  let rec bk r p x =
    if !count >= full then raise Done;
    if Bitset.is_empty p && Bitset.is_empty x then begin
      out := List.sort Stdlib.compare r :: !out;
      incr count
    end
    else begin
      (* pivot: vertex of p ∪ x with most neighbours in p *)
      let pivot = ref (-1) and pivot_deg = ref (-1) in
      let consider v =
        let d = Bitset.inter_cardinal p (Ugraph.neighbors g v) in
        if d > !pivot_deg then begin
          pivot_deg := d;
          pivot := v
        end
      in
      Bitset.iter consider p;
      Bitset.iter consider x;
      let candidates = Bitset.diff p (Ugraph.neighbors g !pivot) in
      let p = Bitset.copy p and x = Bitset.copy x in
      Bitset.iter
        (fun v ->
          let nv = Ugraph.neighbors g v in
          bk (v :: r) (Bitset.inter p nv) (Bitset.inter x nv);
          Bitset.remove p v;
          Bitset.add x v)
        candidates
    end
  in
  (try bk [] (Bitset.full n) (Bitset.create n) with Done -> ());
  List.rev !out
