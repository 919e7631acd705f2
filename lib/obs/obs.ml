(* Observability: sharded counters, gauges, GC-aware spans, Chrome
   traces, and JSON reports. See obs.mli for the contract.

   Counter sharding: each counter owns a [Domain.DLS] key whose
   per-domain init allocates a fresh cell and registers it (under the
   registry mutex) on the counter's cell list. After that first touch,
   [incr]/[add] are a DLS lookup plus a plain mutable-field increment —
   no lock, no allocation, no atomic. Cross-domain reads of a cell are
   benign races (a snapshot may lag an in-flight increment by a few
   counts); they become exact once the writing domains have been joined
   (e.g. after [Pool.with_pool] returns), which is when the CLI and the
   harness take their snapshots. *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  let escape_to buf s =
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'

  let float_to buf f =
    if not (Float.is_finite f) then Buffer.add_string buf "null"
    else if Float.is_integer f && Float.abs f < 1e15 then
      Buffer.add_string buf (Printf.sprintf "%.1f" f)
    else Buffer.add_string buf (Printf.sprintf "%.17g" f)

  let rec emit buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> float_to buf f
    | Str s -> escape_to buf s
    | Arr xs ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char buf ',';
            emit buf x)
          xs;
        Buffer.add_char buf ']'
    | Obj kvs ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            escape_to buf k;
            Buffer.add_char buf ':';
            emit buf v)
          kvs;
        Buffer.add_char buf '}'

  let to_string v =
    let buf = Buffer.create 256 in
    emit buf v;
    Buffer.contents buf

  exception Parse_error of string

  let of_string s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
          advance ();
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Printf.sprintf "expected %C" c)
    in
    let literal word v =
      if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
      then (
        pos := !pos + String.length word;
        v)
      else fail (Printf.sprintf "invalid literal (expected %s)" word)
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec loop () =
        if !pos >= n then fail "unterminated string";
        let c = s.[!pos] in
        advance ();
        match c with
        | '"' -> Buffer.contents buf
        | '\\' -> (
            if !pos >= n then fail "unterminated escape";
            let e = s.[!pos] in
            advance ();
            match e with
            | '"' | '\\' | '/' ->
                Buffer.add_char buf e;
                loop ()
            | 'b' ->
                Buffer.add_char buf '\b';
                loop ()
            | 'f' ->
                Buffer.add_char buf '\012';
                loop ()
            | 'n' ->
                Buffer.add_char buf '\n';
                loop ()
            | 'r' ->
                Buffer.add_char buf '\r';
                loop ()
            | 't' ->
                Buffer.add_char buf '\t';
                loop ()
            | 'u' ->
                if !pos + 4 > n then fail "truncated \\u escape";
                let hex = String.sub s !pos 4 in
                pos := !pos + 4;
                let cp =
                  try int_of_string ("0x" ^ hex) with _ -> fail "bad \\u escape"
                in
                (* Encode the code point as UTF-8 (surrogate pairs are
                   kept as two separately-encoded halves; good enough
                   for our own well-formed output). *)
                if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
                else if cp < 0x800 then (
                  Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
                  Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F))))
                else (
                  Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
                  Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
                  Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F))));
                loop ()
            | _ -> fail "bad escape")
        | c ->
            Buffer.add_char buf c;
            loop ()
      in
      loop ()
    in
    let parse_number () =
      let start = !pos in
      let is_num_char c =
        match c with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while !pos < n && is_num_char s.[!pos] do
        advance ()
      done;
      let tok = String.sub s start (!pos - start) in
      let looks_float =
        String.exists (fun c -> c = '.' || c = 'e' || c = 'E') tok
      in
      if looks_float then
        match float_of_string_opt tok with
        | Some f -> Float f
        | None -> fail "bad number"
      else
        match int_of_string_opt tok with
        | Some i -> Int i
        | None -> (
            match float_of_string_opt tok with
            | Some f -> Float f
            | None -> fail "bad number")
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some 'n' -> literal "null" Null
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some '"' -> Str (parse_string ())
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then (
            advance ();
            Arr [])
          else
            let rec items acc =
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  items (v :: acc)
              | Some ']' ->
                  advance ();
                  List.rev (v :: acc)
              | _ -> fail "expected ',' or ']'"
            in
            Arr (items [])
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then (
            advance ();
            Obj [])
          else
            let rec members acc =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  members ((k, v) :: acc)
              | Some '}' ->
                  advance ();
                  List.rev ((k, v) :: acc)
              | _ -> fail "expected ',' or '}'"
            in
            Obj (members [])
      | Some ('-' | '0' .. '9') -> parse_number ()
      | Some c -> fail (Printf.sprintf "unexpected character %C" c)
    in
    try
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then Error (Printf.sprintf "trailing garbage at offset %d" !pos)
      else Ok v
    with Parse_error msg -> Error msg

  let member key = function
    | Obj fields -> List.assoc_opt key fields
    | _ -> None

  (* Structural comparison of two reports up to wall-clock noise: any
     field whose name is listed is nulled out, recursively, before the
     compare. The explicit list keeps test masking declarative instead
     of each test hand-rolling its own JSON surgery. *)
  let rec mask_fields names v =
    match v with
    | Obj fields ->
        Obj
          (List.map
             (fun (k, v) ->
               if List.mem k names then (k, Null) else (k, mask_fields names v))
             fields)
    | Arr items -> Arr (List.map (mask_fields names) items)
    | Null | Bool _ | Int _ | Float _ | Str _ -> v

  let write_file path v =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        output_string oc (to_string v);
        output_char oc '\n')
end

(* ------------------------------------------------------------------ *)

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

(* Registry. [reg_mutex] guards the name tables and every [cells]
   list; it is never held while user code runs. *)
let reg_mutex = Mutex.create ()

type cell = { mutable v : int }

type counter = {
  c_name : string;
  key : cell Domain.DLS.key;
  cells : cell list ref;
}

type gauge = { g_name : string; value : int Atomic.t }

let counters : (string, counter) Hashtbl.t = Hashtbl.create 64
let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 16

let locked f =
  Mutex.lock reg_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock reg_mutex) f

(* Counters, gauges and histograms share one namespace: snapshots and
   reports key entries by name alone, so a name
   registered under two kinds would produce ambiguous rows. [kinds]
   records the kind that first claimed each name; a cross-kind
   re-registration is a hard [Invalid_argument]. Same-kind
   re-registration stays idempotent. Must be called under [reg_mutex]. *)
let kinds : (string, string) Hashtbl.t = Hashtbl.create 64

let claim_name ~kind ~fn name =
  match Hashtbl.find_opt kinds name with
  | Some k when k <> kind ->
      invalid_arg (Printf.sprintf "%s: %S is already registered as a %s" fn name k)
  | Some _ -> ()
  | None -> Hashtbl.add kinds name kind

let counter name =
  locked (fun () ->
      match Hashtbl.find_opt counters name with
      | Some c -> c
      | None ->
          claim_name ~kind:"counter" ~fn:"Obs.counter" name;
          (* The DLS init runs once per (counter, domain); it registers
             the fresh cell so snapshots can find it. The init fires at
             [Domain.DLS.get] time (never here, where the registry lock
             is already held). *)
          let cells = ref [] in
          let key =
            Domain.DLS.new_key (fun () ->
                let cell = { v = 0 } in
                locked (fun () -> cells := cell :: !cells);
                cell)
          in
          let c = { c_name = name; key; cells } in
          Hashtbl.add counters name c;
          c)

let incr c =
  let cell = Domain.DLS.get c.key in
  cell.v <- cell.v + 1

let add c k =
  let cell = Domain.DLS.get c.key in
  cell.v <- cell.v + k

let gauge name =
  locked (fun () ->
      match Hashtbl.find_opt gauges name with
      | Some g -> g
      | None ->
          claim_name ~kind:"gauge" ~fn:"Obs.gauge" name;
          let g = { g_name = name; value = Atomic.make 0 } in
          Hashtbl.add gauges name g;
          g)

let set g v = Atomic.set g.value v

(* ------------------------------------------------------------------ *)

module Histogram = struct
  (* HDR-style log-linear bucketing over non-negative ints: values
     below [sub_count] land in exact unit buckets; each power-of-two
     range [2^m, 2^(m+1)) above is split into [sub_half] equal linear
     sub-buckets, so the relative bucket width never exceeds
     2^(1-sub_bits) = 6.25% while the whole 62-bit positive range fits
     in [bucket_count] integer slots. Recording follows the counter
     cell discipline (per-domain DLS cells, lock-free after first
     touch, benign racy snapshots that are exact once the writing
     domains joined); bucket counts are integers, so merged snapshots
     are deterministic regardless of merge order. *)

  let sub_bits = 5
  let sub_count = 1 lsl sub_bits
  let sub_half = sub_count / 2

  (* The top value bit of a 63-bit OCaml int is bit 61; buckets cover
     msb positions sub_bits..61, half of each range linearly. *)
  let bucket_count = sub_count + ((62 - sub_bits) * sub_half)

  let log2_floor v =
    (* floor(log2 v) for v > 0, by shift cascade (no stdlib clz). *)
    let m = ref 0 and v = ref v in
    if !v lsr 32 <> 0 then (m := !m + 32; v := !v lsr 32);
    if !v lsr 16 <> 0 then (m := !m + 16; v := !v lsr 16);
    if !v lsr 8 <> 0 then (m := !m + 8; v := !v lsr 8);
    if !v lsr 4 <> 0 then (m := !m + 4; v := !v lsr 4);
    if !v lsr 2 <> 0 then (m := !m + 2; v := !v lsr 2);
    if !v lsr 1 <> 0 then m := !m + 1;
    !m

  let bucket_of v =
    if v < sub_count then (if v < 0 then 0 else v)
    else
      let m = log2_floor v in
      let idx =
        sub_count + ((m - sub_bits) * sub_half)
        + ((v lsr (m - sub_bits + 1)) - sub_half)
      in
      if idx >= bucket_count then bucket_count - 1 else idx

  let bucket_bounds i =
    if i < 0 || i >= bucket_count then
      invalid_arg (Printf.sprintf "Obs.Histogram.bucket_bounds: %d" i);
    if i < sub_count then (i, i)
    else
      let j = i - sub_count in
      let m = sub_bits + (j / sub_half) in
      let off = j mod sub_half in
      let w = 1 lsl (m - sub_bits + 1) in
      let lo = (sub_half + off) * w in
      if i = bucket_count - 1 then (lo, max_int) else (lo, lo + w - 1)

  let width_at v =
    let i = bucket_of v in
    if i < sub_count then 1
    else 1 lsl (sub_bits + ((i - sub_count) / sub_half) - sub_bits + 1)

  type hcell = {
    counts : int array;
    mutable hc_n : int;
    mutable hc_sum : int;
    mutable hc_min : int;
    mutable hc_max : int;
  }

  let fresh_cell () =
    { counts = Array.make bucket_count 0; hc_n = 0; hc_sum = 0;
      hc_min = max_int; hc_max = min_int }

  let clear_cell c =
    Array.fill c.counts 0 bucket_count 0;
    c.hc_n <- 0;
    c.hc_sum <- 0;
    c.hc_min <- max_int;
    c.hc_max <- min_int

  type t = { h_key : hcell Domain.DLS.key; h_cells : hcell list ref }

  let create () =
    let h_cells = ref [] in
    let h_key =
      Domain.DLS.new_key (fun () ->
          let cell = fresh_cell () in
          locked (fun () -> h_cells := cell :: !h_cells);
          cell)
    in
    { h_key; h_cells }

  let record h v =
    let v = if v < 0 then 0 else v in
    let c = Domain.DLS.get h.h_key in
    let i = bucket_of v in
    c.counts.(i) <- c.counts.(i) + 1;
    c.hc_n <- c.hc_n + 1;
    c.hc_sum <- c.hc_sum + v;
    if v < c.hc_min then c.hc_min <- v;
    if v > c.hc_max then c.hc_max <- v

  type snap = {
    count : int;
    sum : int;
    min_value : int;
    max_value : int;
    buckets : int array; (* dense, length [bucket_count]; [||] iff empty *)
  }

  let empty = { count = 0; sum = 0; min_value = 0; max_value = 0; buckets = [||] }

  let snap h =
    let cells = locked (fun () -> !(h.h_cells)) in
    if cells = [] then empty
    else begin
      let buckets = Array.make bucket_count 0 in
      let sum = ref 0 and mn = ref max_int and mx = ref min_int in
      List.iter
        (fun c ->
          for i = 0 to bucket_count - 1 do
            buckets.(i) <- buckets.(i) + c.counts.(i)
          done;
          sum := !sum + c.hc_sum;
          if c.hc_min < !mn then mn := c.hc_min;
          if c.hc_max > !mx then mx := c.hc_max)
        cells;
      (* Derive [count] from the bucket array itself so quantile ranks
         stay internally consistent even under racy mid-run reads. *)
      let count = Array.fold_left ( + ) 0 buckets in
      if count = 0 then empty
      else { count; sum = !sum; min_value = !mn; max_value = !mx; buckets }
    end

  let merge a b =
    if a.count = 0 then b
    else if b.count = 0 then a
    else
      {
        count = a.count + b.count;
        sum = a.sum + b.sum;
        min_value = min a.min_value b.min_value;
        max_value = max a.max_value b.max_value;
        buckets = Array.init bucket_count (fun i -> a.buckets.(i) + b.buckets.(i));
      }

  let diff before after =
    if before.count = 0 then after
    else begin
      let count = after.count - before.count in
      if count <= 0 then empty
      else
        (* min/max of only the delta are not recoverable from bucket
           counts; keep the after-snapshot's observed range (a
           superset of the delta's). *)
        {
          count;
          sum = after.sum - before.sum;
          min_value = after.min_value;
          max_value = after.max_value;
          buckets = Array.init bucket_count (fun i -> after.buckets.(i) - before.buckets.(i));
        }
    end

  let quantile s q =
    if s.count = 0 then 0
    else begin
      let q = Float.max 0.0 (Float.min 100.0 q) in
      (* Same nearest-rank formula as a sorted-array percentile over
         [count] samples; the rank's sample and the returned
         representative land in the same bucket, so the two differ by
         less than one bucket width. *)
      let rank = int_of_float (Float.round (q /. 100.0 *. float_of_int (s.count - 1))) in
      let rank = max 0 (min (s.count - 1) rank) in
      (* the extreme ranks are tracked exactly — answer them from the
         recorded extrema rather than a bucket representative *)
      if rank = 0 then s.min_value
      else if rank = s.count - 1 then s.max_value
      else
      let rec find i cum =
        if i >= bucket_count then s.max_value
        else
          let cum = cum + s.buckets.(i) in
          if rank < cum then begin
            let lo, hi = bucket_bounds i in
            let rep = if hi = max_int then lo else lo + ((hi - lo) / 2) in
            min (max rep s.min_value) s.max_value
          end
          else find (i + 1) cum
      in
      find 0 0
    end

  let to_json s =
    let buckets = ref [] in
    if s.count > 0 then
      for i = bucket_count - 1 downto 0 do
        if s.buckets.(i) <> 0 then
          let lo, hi = bucket_bounds i in
          buckets :=
            Json.Obj [ ("lo", Json.Int lo); ("hi", Json.Int hi); ("count", Json.Int s.buckets.(i)) ]
            :: !buckets
      done;
    Json.Obj
      [
        ("count", Json.Int s.count);
        ("sum", Json.Int s.sum);
        ("min", Json.Int s.min_value);
        ("max", Json.Int s.max_value);
        ("p50", Json.Int (quantile s 50.0));
        ("p95", Json.Int (quantile s 95.0));
        ("p99", Json.Int (quantile s 99.0));
        ("p999", Json.Int (quantile s 99.9));
        ("buckets", Json.Arr !buckets);
      ]
end

let hists : (string, Histogram.t) Hashtbl.t = Hashtbl.create 16

let histogram name =
  (* [Histogram.create] only builds the DLS key (its init — the part
     that needs the registry lock — runs later, at first record), so
     calling it with [reg_mutex] held is safe. *)
  locked (fun () ->
      match Hashtbl.find_opt hists name with
      | Some h -> h
      | None ->
          claim_name ~kind:"histogram" ~fn:"Obs.histogram" name;
          let h = Histogram.create () in
          Hashtbl.add hists name h;
          h)

type snapshot = (string * int) list

let by_name (a, _) (b, _) = String.compare a b

let snapshot () =
  locked (fun () ->
      let cs =
        Hashtbl.fold
          (fun name c acc ->
            (name, List.fold_left (fun s cell -> s + cell.v) 0 !(c.cells)) :: acc)
          counters []
      in
      let gs = Hashtbl.fold (fun name g acc -> (name, Atomic.get g.value) :: acc) gauges cs in
      List.sort by_name gs)

let snapshot_local () =
  (* Collect the counter records under the lock, then read this
     domain's cells outside it ([Domain.DLS.get] may need the lock to
     register a fresh cell). *)
  let cs = locked (fun () -> Hashtbl.fold (fun _ c acc -> c :: acc) counters []) in
  List.sort by_name (List.map (fun c -> (c.c_name, (Domain.DLS.get c.key).v)) cs)

let diff before after =
  List.filter_map
    (fun (name, v_after) ->
      let v_before = match List.assoc_opt name before with Some v -> v | None -> 0 in
      let d = v_after - v_before in
      if d = 0 then None else Some (name, d))
    after

let histograms () =
  (* Collect handles under the lock, snap outside it ([Histogram.snap]
     takes the registry lock itself). *)
  let hs = locked (fun () -> Hashtbl.fold (fun name h acc -> (name, h) :: acc) hists []) in
  List.map
    (fun (name, h) -> (name, Histogram.snap h))
    (List.sort (fun (a, _) (b, _) -> String.compare a b) hs)

(* ------------------------------------------------------------------ *)

let epoch = Unix.gettimeofday ()

let time f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  (result, Unix.gettimeofday () -. t0)

type span_node = {
  name : string;
  domain : int;
  start_s : float;
  mutable dur_s : float;
  mutable minor_words : float;
  mutable major_words : float;
  mutable minor_collections : int;
  mutable major_collections : int;
  mutable children : span_node list;
}

(* Per-domain span state: [stack] is the path of currently-open spans
   (innermost first); [roots] collects completed toplevel spans in
   reverse chronological order. States are registered globally so an
   exporter can walk every domain's roots after the workers joined. *)
type dstate = { did : int; mutable stack : span_node list; mutable roots : span_node list }

let dstates : dstate list ref = ref []

let dstate_key =
  Domain.DLS.new_key (fun () ->
      let st = { did = (Domain.self () :> int); stack = []; roots = [] } in
      locked (fun () -> dstates := st :: !dstates);
      st)

let span name f =
  if not (enabled ()) then f ()
  else
    let st = Domain.DLS.get dstate_key in
    let g0 = Gc.quick_stat () in
    (* quick_stat's minor_words only advances at collection boundaries
       (native code); minor_words () reads the young pointer, so short
       spans still get an accurate allocation delta *)
    let mw0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    let node =
      {
        name;
        domain = st.did;
        start_s = t0 -. epoch;
        dur_s = 0.0;
        minor_words = 0.0;
        major_words = 0.0;
        minor_collections = 0;
        major_collections = 0;
        children = [];
      }
    in
    st.stack <- node :: st.stack;
    Fun.protect
      ~finally:(fun () ->
        let t1 = Unix.gettimeofday () in
        let g1 = Gc.quick_stat () in
        node.dur_s <- t1 -. t0;
        node.minor_words <- Gc.minor_words () -. mw0;
        node.major_words <- g1.Gc.major_words -. g0.Gc.major_words;
        node.minor_collections <- g1.Gc.minor_collections - g0.Gc.minor_collections;
        node.major_collections <- g1.Gc.major_collections - g0.Gc.major_collections;
        node.children <- List.rev node.children;
        (match st.stack with
        | top :: rest when top == node -> st.stack <- rest
        | _ -> st.stack <- List.filter (fun s -> not (s == node)) st.stack);
        match st.stack with
        | parent :: _ -> parent.children <- node :: parent.children
        | [] -> st.roots <- node :: st.roots)
      f

let spans () =
  let states = locked (fun () -> !dstates) in
  let roots = List.concat_map (fun st -> List.rev st.roots) states in
  List.sort
    (fun a b ->
      match compare a.domain b.domain with 0 -> compare a.start_s b.start_s | c -> c)
    roots

let reset () =
  locked (fun () ->
      Hashtbl.iter (fun _ c -> List.iter (fun cell -> cell.v <- 0) !(c.cells)) counters;
      Hashtbl.iter (fun _ g -> Atomic.set g.value 0) gauges;
      Hashtbl.iter
        (fun _ (h : Histogram.t) -> List.iter Histogram.clear_cell !(h.Histogram.h_cells))
        hists;
      List.iter
        (fun st ->
          st.stack <- [];
          st.roots <- [])
        !dstates)

(* ------------------------------------------------------------------ *)

let render_stats () =
  let buf = Buffer.create 1024 in
  let snap = List.filter (fun (_, v) -> v <> 0) (snapshot ()) in
  Buffer.add_string buf "\n== obs: counters ==\n";
  if snap = [] then Buffer.add_string buf "  (none)\n"
  else
    List.iter
      (fun (name, v) -> Buffer.add_string buf (Printf.sprintf "  %-44s %14d\n" name v))
      snap;
  let hs = List.filter (fun (_, s) -> s.Histogram.count > 0) (histograms ()) in
  if hs <> [] then begin
    Buffer.add_string buf "\n== obs: histograms ==\n";
    List.iter
      (fun (name, s) ->
        Buffer.add_string buf
          (Printf.sprintf "  %-32s n %10d  p50 %12d  p95 %12d  p99 %12d  max %12d\n" name
             s.Histogram.count
             (Histogram.quantile s 50.0)
             (Histogram.quantile s 95.0)
             (Histogram.quantile s 99.0)
             s.Histogram.max_value))
      hs
  end;
  let roots = spans () in
  if roots <> [] then begin
    Buffer.add_string buf "\n== obs: spans (wall clock, GC deltas) ==\n";
    let rec emit depth node =
      let label = String.make (2 * depth) ' ' ^ node.name in
      Buffer.add_string buf
        (Printf.sprintf "  [d%d] %-40s %10.3f ms  minor %.0fw  major %.0fw  gc %d/%d\n"
           node.domain label (node.dur_s *. 1000.0) node.minor_words node.major_words
           node.minor_collections node.major_collections);
      List.iter (emit (depth + 1)) node.children
    in
    List.iter (emit 0) roots
  end;
  Buffer.contents buf

let rec span_json node =
  Json.Obj
    [
      ("name", Json.Str node.name);
      ("domain", Json.Int node.domain);
      ("start_s", Json.Float node.start_s);
      ("dur_s", Json.Float node.dur_s);
      ( "gc",
        Json.Obj
          [
            ("minor_words", Json.Float node.minor_words);
            ("major_words", Json.Float node.major_words);
            ("minor_collections", Json.Int node.minor_collections);
            ("major_collections", Json.Int node.major_collections);
          ] );
      ("children", Json.Arr (List.map span_json node.children));
    ]

let counters_json snap =
  Json.Obj (List.filter_map (fun (k, v) -> if v <> 0 then Some (k, Json.Int v) else None) snap)

let histograms_json () =
  Json.Obj
    (List.filter_map
       (fun (name, s) ->
         if s.Histogram.count = 0 then None else Some (name, Histogram.to_json s))
       (histograms ()))

let stats_json () =
  Json.Obj
    [
      ("schema_version", Json.Int 1);
      ("counters", counters_json (snapshot ()));
      ("histograms", histograms_json ());
      ("spans", Json.Arr (List.map span_json (spans ())));
    ]

(** Schema-versioned report envelope shared by the JSON report writers
    (serve, fuzz, trace): [kind]-tagged, caller fields in
    [extra], the counter snapshot and span forest appended last. *)
let run_report ~kind ?(extra = []) () =
  Json.Obj
    ((("schema_version", Json.Int 1) :: ("kind", Json.Str kind) :: extra)
    @ [
        ("counters", counters_json (snapshot ()));
        ("histograms", histograms_json ());
        ("spans", Json.Arr (List.map span_json (spans ())));
      ])

let write_trace path =
  let roots = spans () in
  let domains =
    List.sort_uniq compare (List.map (fun r -> r.domain) roots)
  in
  let events = ref [] in
  let push e = events := e :: !events in
  List.iter
    (fun d ->
      push
        (Json.Obj
           [
             ("name", Json.Str "process_name");
             ("ph", Json.Str "M");
             ("pid", Json.Int d);
             ("tid", Json.Int d);
             ("args", Json.Obj [ ("name", Json.Str (Printf.sprintf "domain-%d" d)) ]);
           ]))
    domains;
  let rec emit node =
    push
      (Json.Obj
         [
           ("name", Json.Str node.name);
           ("cat", Json.Str "obs");
           ("ph", Json.Str "B");
           ("ts", Json.Float (node.start_s *. 1e6));
           ("pid", Json.Int node.domain);
           ("tid", Json.Int node.domain);
         ]);
    List.iter emit node.children;
    push
      (Json.Obj
         [
           ("name", Json.Str node.name);
           ("cat", Json.Str "obs");
           ("ph", Json.Str "E");
           ("ts", Json.Float ((node.start_s +. node.dur_s) *. 1e6));
           ("pid", Json.Int node.domain);
           ("tid", Json.Int node.domain);
           ( "args",
             Json.Obj
               [
                 ("minor_words", Json.Float node.minor_words);
                 ("major_words", Json.Float node.major_words);
                 ("minor_collections", Json.Int node.minor_collections);
                 ("major_collections", Json.Int node.major_collections);
               ] );
         ])
  in
  List.iter emit roots;
  Json.write_file path
    (Json.Obj
       [ ("traceEvents", Json.Arr (List.rev !events)); ("displayTimeUnit", Json.Str "ms") ])
