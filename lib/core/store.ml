module Shard = Lsdb_datalog.Shard
module Index = Lsdb_datalog.Index
module Int_tbl = Hashtbl.Make (Int)

(* One evaluation index per shard over the facts it owns. Everything
   routable by source is answered from one shard; source-unbound probes
   fan out across all shards in index order. *)
type t = {
  mutable plan : Shard.plan;
  mutable subs : Index.t array;  (* length = Shard.shards plan *)
  refcount : int Int_tbl.t;  (* entity -> occurrences, across all shards *)
}

type pattern = { s : Entity.t option; r : Entity.t option; t : Entity.t option }

let pattern ?s ?r ?t () = { s; r; t }

let make_subs plan size_hint =
  Array.init (Shard.shards plan) (fun _ -> Index.create ~size_hint ())

let create ?(size_hint = 256) ?(shards = 1) () =
  let plan = Shard.plan shards in
  { plan; subs = make_subs plan size_hint; refcount = Int_tbl.create size_hint }

let shards t = Shard.shards t.plan
let shard_plan t = t.plan
let sub_of t s = t.subs.(Shard.of_entity t.plan s)

let ref_incr t e =
  Int_tbl.replace t.refcount e
    (1 + match Int_tbl.find_opt t.refcount e with Some n -> n | None -> 0)

let ref_decr t e =
  match Int_tbl.find_opt t.refcount e with
  | None -> ()
  | Some 1 -> Int_tbl.remove t.refcount e
  | Some n -> Int_tbl.replace t.refcount e (n - 1)

let add t (fact : Fact.t) =
  if Index.add (sub_of t fact.s) fact then begin
    ref_incr t fact.s;
    ref_incr t fact.r;
    ref_incr t fact.t;
    true
  end
  else false

let remove t (fact : Fact.t) =
  if Index.remove (sub_of t fact.s) fact then begin
    ref_decr t fact.s;
    ref_decr t fact.r;
    ref_decr t fact.t;
    true
  end
  else false

let mem t (fact : Fact.t) = Index.mem (sub_of t fact.s) fact
let cardinal t = Array.fold_left (fun n sub -> n + Index.cardinal sub) 0 t.subs
let shard_cardinals t = Array.map Index.cardinal t.subs

let clear t =
  t.subs <- make_subs t.plan 256;
  Int_tbl.reset t.refcount

let quiesce t = Array.iter Index.quiesce t.subs
let iter f t = Array.iter (Index.iter f) t.subs

let fold f t init =
  let acc = ref init in
  iter (fun fact -> acc := f fact !acc) t;
  !acc

let to_seq t = Seq.concat_map Index.to_seq (Array.to_seq t.subs)
let to_list t = List.of_seq (to_seq t)

let match_pattern t { s; r; t = tgt } f =
  match s with
  | Some e -> Index.candidates (sub_of t e) ~s ~r ~tgt f
  | None -> Array.iter (fun sub -> Index.candidates sub ~s ~r ~tgt f) t.subs

let match_list t pat =
  let acc = ref [] in
  match_pattern t pat (fun fact -> acc := fact :: !acc);
  !acc

let count_matches t pat =
  let n = ref 0 in
  match_pattern t pat (fun _ -> incr n);
  !n

let count_fast t { s; r; t = tgt } =
  match s with
  | Some e -> Index.count (sub_of t e) ~s ~r ~tgt
  | None ->
      Array.fold_left (fun n sub -> n + Index.count sub ~s ~r ~tgt) 0 t.subs

let matches_pattern { s; r; t = tgt } (fact : Fact.t) =
  (match s with Some s -> s = fact.s | None -> true)
  && (match r with Some r -> r = fact.r | None -> true)
  && match tgt with Some tg -> tg = fact.t | None -> true

let match_scan t pat f = iter (fun fact -> if matches_pattern pat fact then f fact) t

let active_entities t = Int_tbl.to_seq_keys t.refcount
let entity_active t e = Int_tbl.mem t.refcount e

(* Re-partition in place: the handle every reader captured stays valid,
   only the internal routing changes. O(heap); callers invalidate any
   structure that depends on iteration order. *)
let reshard t n =
  let plan = Shard.plan n in
  if Shard.shards plan <> Shard.shards t.plan then begin
    let facts = to_list t in
    let size_hint = max 256 (List.length facts / Shard.shards plan) in
    t.plan <- plan;
    t.subs <- make_subs plan size_hint;
    Int_tbl.reset t.refcount;
    List.iter (fun fact -> ignore (add t fact : bool)) facts
  end

let copy t =
  let fresh = create ~size_hint:(max 256 (cardinal t)) ~shards:(shards t) () in
  iter (fun fact -> ignore (add fresh fact)) t;
  fresh
