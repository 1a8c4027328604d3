let lowercase = String.lowercase_ascii

(* Case-folded comparison of [needle] against [haystack] at every
   offset, byte by byte in place: nothing is allocated. *)
let contains_ci haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec matches_at i k =
    k = nn
    || Char.lowercase_ascii (String.unsafe_get haystack (i + k))
       = Char.lowercase_ascii (String.unsafe_get needle k)
       && matches_at i (k + 1)
  in
  let rec go i = i + nn <= nh && (matches_at i 0 || go (i + 1)) in
  go 0

let substring ?(limit = 20) db needle =
  let symtab = Database.symtab db in
  let hits = ref [] in
  Symtab.iter_user
    (fun e -> if contains_ci (Symtab.name symtab e) needle then hits := e :: !hits)
    symtab;
  !hits
  |> List.sort (fun a b ->
         let la = String.length (Symtab.name symtab a) in
         let lb = String.length (Symtab.name symtab b) in
         if la <> lb then Int.compare la lb else Entity.compare a b)
  |> List.filteri (fun i _ -> i < limit)

(* Classic two-row Levenshtein. *)
let edit_distance a b =
  let la = String.length a and lb = String.length b in
  if la = 0 then lb
  else if lb = 0 then la
  else begin
    let previous = Array.init (lb + 1) Fun.id in
    let current = Array.make (lb + 1) 0 in
    for i = 1 to la do
      current.(0) <- i;
      for j = 1 to lb do
        let cost = if a.[i - 1] = b.[j - 1] then 0 else 1 in
        current.(j) <-
          min
            (min (current.(j - 1) + 1) (previous.(j) + 1))
            (previous.(j - 1) + cost)
      done;
      Array.blit current 0 previous 0 (lb + 1)
    done;
    previous.(lb)
  end

(* Longest target the bit-parallel kernel takes: one bit per target
   byte in an OCaml int (63 on 64-bit hosts). *)
let kernel_bits = Sys.int_size

(* Myers/Hyyrö bit-parallel Levenshtein (Myers, JACM 1999; Hyyrö
   2001), global variant. [peq.(c)] has bit i set when the (lowercased)
   target's byte i is [c]; [pv]/[mv] hold the +1/-1 vertical deltas of
   the current DP column and [score] its last cell. Each candidate byte
   is case-folded on the fly, so a candidate costs one pass of word
   operations and no allocation. Bits above the target's length hold
   garbage, but carries and shifts only move upward, so the bits
   below [high] are exact. *)
let kernel_distance peq ~m candidate =
  let high = 1 lsl (m - 1) in
  let pv = ref (-1) and mv = ref 0 and score = ref m in
  for j = 0 to String.length candidate - 1 do
    let eq = peq.(Char.code (Char.lowercase_ascii (String.unsafe_get candidate j))) in
    let xv = eq lor !mv in
    let xh = (((eq land !pv) + !pv) lxor !pv) lor eq in
    let ph = !mv lor lnot (xh lor !pv) in
    let mh = !pv land xh in
    if ph land high <> 0 then incr score
    else if mh land high <> 0 then decr score;
    (* Row 0 of the global DP grows by one per column: shift in a +1. *)
    let ph = (ph lsl 1) lor 1 and mh = mh lsl 1 in
    pv := mh lor lnot (xv lor ph);
    mv := ph land xv
  done;
  !score

(* The case-insensitive distance from the target to a candidate name:
   the kernel for targets of 1–63 bytes, the DP above for longer ones. *)
let distance_to target =
  let m = String.length target in
  if m = 0 then String.length
  else if m <= kernel_bits then begin
    let peq = Array.make 256 0 in
    String.iteri
      (fun i c -> let k = Char.code c in peq.(k) <- peq.(k) lor (1 lsl i))
      target;
    kernel_distance peq ~m
  end
  else fun candidate -> edit_distance (lowercase candidate) target

(* Every entity within [max_distance] of [name], nearest first, ties by
   id; exact (case-insensitive) matches are distance 0 and excluded. *)
let nearest ~max_distance db name =
  let symtab = Database.symtab db in
  let target = lowercase name in
  let distance = distance_to target in
  let hits = ref [] in
  Symtab.iter_user
    (fun e ->
      let candidate = Symtab.name symtab e in
      (* Cheap length prefilter before the distance. *)
      if abs (String.length candidate - String.length target) <= max_distance then begin
        let d = distance candidate in
        if d > 0 && d <= max_distance then hits := (d, e) :: !hits
      end)
    symtab;
  List.sort compare !hits |> List.map snd

let default_max_distance = 2

let fuzzy ?(limit = 10) ?(max_distance = default_max_distance) db name =
  nearest ~max_distance db name |> List.filteri (fun i _ -> i < limit)

(* Walk the whole nearest-first list, testing each hit only until
   [limit] are accepted: interned names with no facts (probes intern
   their misspellings) never crowd a real entity out. *)
let suggestions ?(limit = 5) db name =
  let rec take n acc = function
    | e :: rest when n > 0 ->
        if Database.entity_in_closure db e then take (n - 1) (e :: acc) rest
        else take n acc rest
    | _ -> List.rev acc
  in
  take limit [] (nearest ~max_distance:default_max_distance db name)
