(* The host's speed, sampled while a run goes on. The host shares its
   cores with other tenants, and its speed moves by up to 1.7x over
   windows of a few seconds, memory-bound work slowing more than
   compute-bound work. [probe] times a fixed piece of work that uses
   only the standard library, so its duration follows the host and never
   the program under test. It has two parts, because the program's
   commands are of both kinds (the closure and the indexes are
   memory-bound, the "Did you mean" scan's edit distances are not): a
   memory part, random byte updates over a 4 MiB buffer, and a compute
   part, an edit-distance style recurrence over two small int arrays.
   Measured on this host over 2 s windows, the closure's time divided by
   the probe's varied with a coefficient of variation of 0.03 and the
   scan's 0.04, against 0.09 and 0.07 unscaled; the memory part alone
   left the scan's at 0.08. The memory updates run four times untimed
   before each timed pass, so a probe does not depend on what the
   program left in the caches (right after the program's work, a timed
   pass read 30% slower than in a row of probes after one untimed pass,
   17% after two). The probe allocates nothing, so no collection of the
   program's heap runs inside it. perfbench/run.py scales each measured
   time by the probes taken around it (see NOTES.md, Steadiness). *)

let buffer = Bytes.make (1 lsl 22) '\000'
let iterations = 100_000

(* [steps] random byte updates over the buffer. *)
let memory steps =
  let x = ref 12345 in
  for i = 1 to steps do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFF;
    let b = Char.code (Bytes.unsafe_get buffer !x) in
    Bytes.unsafe_set buffer !x (Char.unsafe_chr ((b + i) land 255))
  done

let previous = Array.make 21 0
let current = Array.make 21 0

(* [rounds] 20 x 20 edit-distance recurrences. *)
let compute rounds =
  let sum = ref 0 in
  for r = 1 to rounds do
    for j = 0 to 20 do
      previous.(j) <- j + r
    done;
    for i = 1 to 20 do
      current.(0) <- i;
      for j = 1 to 20 do
        let cost = if ((i * 7) + r) land 3 = j land 3 then 0 else 1 in
        current.(j) <-
          min (min (current.(j - 1) + 1) (previous.(j) + 1)) (previous.(j - 1) + cost)
      done;
      Array.blit current 0 previous 0 21
    done;
    sum := !sum + previous.(20)
  done;
  ignore (Sys.opaque_identity !sum)

(* One probe: (when it started, how long it took), in seconds. *)
let probe () =
  memory (4 * iterations);
  let t0 = Spans.now () in
  memory iterations;
  compute 40;
  (t0, Spans.now () -. t0)

type t = { mutable samples : (float * float) list; mutable last : float }

let create () = { samples = []; last = neg_infinity }

let sample t =
  t.samples <- probe () :: t.samples;
  t.last <- Spans.now ()

(* Probes in a row, taken before and after each cold phase. *)
let burst t = for _ = 1 to 12 do sample t done

(* Seconds of session time between two probes. *)
let tick_every = 0.05

(* Called after each session operation: a probe if [tick_every] has passed. *)
let tick t = if Spans.now () -. t.last >= tick_every then sample t

let samples t = List.rev t.samples
