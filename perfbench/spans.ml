(* In-memory span recorder for the traced run. A span is (name, start,
   end, parent, command id); spans live in a growable array and are
   written out only when the run ends. A layer's self time is its span's
   duration minus the time its child spans cover. *)

type span = {
  name : string;
  start : float;
  mutable stop : float;
  parent : int;  (* index of the enclosing span, -1 at the root *)
  cmd : int;  (* command id; negative for work outside the session *)
}

type t = {
  mutable spans : span array;
  mutable count : int;
  mutable current : int;
  mutable cmd : int;
}

(* Monotonic, nanosecond resolution; seconds as a float. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
let dummy = { name = ""; start = 0.; stop = 0.; parent = -1; cmd = 0 }
let create () = { spans = Array.make 4096 dummy; count = 0; current = -1; cmd = -1 }
let set_cmd t cmd = t.cmd <- cmd

let span t name f =
  if t.count = Array.length t.spans then begin
    let bigger = Array.make (2 * t.count) dummy in
    Array.blit t.spans 0 bigger 0 t.count;
    t.spans <- bigger
  end;
  let id = t.count in
  let parent = t.current in
  t.spans.(id) <- { name; start = now (); stop = nan; parent; cmd = t.cmd };
  t.count <- id + 1;
  t.current <- id;
  Fun.protect
    ~finally:(fun () ->
      t.spans.(id).stop <- now ();
      t.current <- parent)
    f

let duration s = s.stop -. s.start

(* Self seconds per span name, over the spans [keep] selects. *)
let self_times ?(keep = fun _ -> true) t =
  let child = Array.make t.count 0. in
  for i = 0 to t.count - 1 do
    let s = t.spans.(i) in
    if s.parent >= 0 then child.(s.parent) <- child.(s.parent) +. duration s
  done;
  let totals = Hashtbl.create 32 in
  for i = 0 to t.count - 1 do
    let s = t.spans.(i) in
    if keep s then
      let prev = Option.value ~default:0. (Hashtbl.find_opt totals s.name) in
      Hashtbl.replace totals s.name (prev +. duration s -. child.(i))
  done;
  totals

(* Summed duration of the root spans [keep] selects. *)
let root_time ?(keep = fun _ -> true) t =
  let total = ref 0. in
  for i = 0 to t.count - 1 do
    let s = t.spans.(i) in
    if s.parent < 0 && keep s then total := !total +. duration s
  done;
  !total

let write t path =
  let oc = open_out path in
  Printf.fprintf oc "name\tstart\tend\tparent\tcmd\n";
  let t0 = if t.count > 0 then t.spans.(0).start else 0. in
  for i = 0 to t.count - 1 do
    let s = t.spans.(i) in
    Printf.fprintf oc "%s\t%.9f\t%.9f\t%d\t%d\n" s.name (s.start -. t0) (s.stop -. t0)
      s.parent s.cmd
  done;
  close_out oc
