(* Host-speed calibration against the reference kernel.

   The kernel ([refkernel.exe]) runs in its own process, started before
   any input exists and driven synchronously: the benchmark asks for one
   slice and blocks until the kernel reports the slice's wall time, so
   kernel work never overlaps timed work and the benchmark's heap cannot
   slow it down.  A slice follows every timed step, or every few when
   steps are short.  A step's calibrated time is its raw time scaled by
   [nominal_ref_ms / local reference time], the local reference time
   being the median of the slices around it. *)

let nominal_ref_ms = 10.5
(* about one slice on the 2-vCPU host the bounds were set on; it only
   fixes the unit, every calibrated figure scales with it *)

let window = 2
(* slices on each side of a step that its local reference time spans *)

type t = {
  pid : int;
  oc : out_channel;
  ic : in_channel;
  mutable refs : float array;  (** slice wall times, ms *)
  mutable n : int;
  mutable unsliced_ms : float;  (** timed work since the last slice *)
}

let start exe =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe [| exe |] in_r out_w Unix.stderr in
  Unix.close in_r;
  Unix.close out_w;
  { pid; oc = Unix.out_channel_of_descr in_w; ic = Unix.in_channel_of_descr out_r;
    refs = Array.make 1024 0.; n = 0; unsliced_ms = 0. }

let stop t =
  close_out_noerr t.oc;
  close_in_noerr t.ic;
  ignore (Unix.waitpid [] t.pid)

(* One reference slice, appended to the run's slice series. *)
let slice t =
  output_string t.oc "s\n";
  flush t.oc;
  let line = try input_line t.ic with End_of_file -> "err kernel exited" in
  match String.split_on_char ' ' line with
  | [ ns; _checksum ] when float_of_string_opt ns <> None ->
    if t.n = Array.length t.refs then begin
      let a = Array.make (2 * t.n) 0. in
      Array.blit t.refs 0 a 0 t.n;
      t.refs <- a
    end;
    t.refs.(t.n) <- float_of_string ns /. 1e6;
    t.n <- t.n + 1
  | _ -> failwith ("reference kernel: " ^ line)

let min_slice_gap_ms = 20.
(* timed work between slices: short steps share the slice that follows
   the last of them, so slices never take most of a run *)

let slice_every_ms = 100.
(* after a long step, one slice per this much of it, so the reference
   keeps sampling the host as densely as the work does *)

(* Time [f ()]; slices follow once [min_slice_gap_ms] of timed work has
   built up.  Returns (result, raw ms, index of the first slice after). *)
let timed t f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let ms = (Unix.gettimeofday () -. t0) *. 1000. in
  let j = t.n in
  t.unsliced_ms <- t.unsliced_ms +. ms;
  if t.unsliced_ms >= min_slice_gap_ms then begin
    for _ = 1 to max 1 (int_of_float (t.unsliced_ms /. slice_every_ms)) do
      slice t
    done;
    t.unsliced_ms <- 0.
  end;
  (r, ms, j)

(* Close a stretch of timed steps with a slice if one is still owed. *)
let flush t =
  if t.unsliced_ms > 0. then begin
    t.unsliced_ms <- 0.;
    slice t
  end

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let local_ref t j =
  let lo = max 0 (j - window) and hi = min (t.n - 1) (j + window) in
  median (Array.sub t.refs lo (hi - lo + 1))

let calibrate t ~slice ms = ms *. nominal_ref_ms /. local_ref t slice

let refs t = Array.sub t.refs 0 t.n
