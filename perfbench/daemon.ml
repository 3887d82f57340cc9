(* A [pmtbr serve] daemon in its own process, and the closed loop that
   drives it: each client connection sends its next job only once the
   previous reply is in.  Those connections are the only ones ever
   opened — pings, the stats request and the shutdown all ride on them —
   so no idle connection ever pins a daemon worker. *)

module Protocol = Pmtbr_serve.Protocol
module Client = Pmtbr_serve.Client

type t = {
  pid : int;
  socket : string;
  mutable conns : Client.t array;
  mutable alive : bool;
}

type answer = {
  idx : int;  (** position in the job stream *)
  spec : Gen.spec;
  sent : float;  (** send time *)
  rtt_s : float;  (** client round trip *)
  result : (Protocol.response, string) result;
}

let ok_response = function
  | Ok r -> ( match r.Protocol.status with Ok () -> Some r | Error _ -> None)
  | Error _ -> None

let field r k = Option.value (Protocol.field r k) ~default:""

let require what = function
  | Ok r -> (
      match r.Protocol.status with
      | Ok () -> r
      | Error msg -> failwith (Printf.sprintf "%s: server error: %s" what msg))
  | Error msg -> failwith (Printf.sprintf "%s: %s" what msg)

let rec connect_retry socket ~deadline =
  match Client.connect socket with
  | c -> c
  | exception Unix.Unix_error _ when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.005;
      connect_retry socket ~deadline

(* Reap the daemon within [grace] seconds, killing it if it lingers. *)
let reap ?(grace = 5.0) d =
  if d.alive then begin
    let deadline = Unix.gettimeofday () +. grace in
    let rec wait () =
      match Unix.waitpid [ Unix.WNOHANG ] d.pid with
      | 0, _ when Unix.gettimeofday () < deadline ->
          Unix.sleepf 0.01;
          wait ()
      | 0, _ ->
          (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] d.pid)
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    in
    wait ();
    d.alive <- false
  end;
  if Sys.file_exists d.socket then Sys.remove d.socket

(* Close the job connections, then ask the daemon to stop over the last
   one, so its drain never waits on an open idle connection. *)
let stop d =
  if d.alive then begin
    let n = Array.length d.conns in
    Array.iteri (fun i c -> if i < n - 1 then Client.close c) d.conns;
    (try ignore (Client.request d.conns.(n - 1) Protocol.Shutdown) with _ -> ());
    Client.close d.conns.(n - 1);
    reap d
  end

(* Every daemon this process started, so an exit on any path reaps them. *)
let live : t list ref = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun d ->
          if d.alive then begin
            (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
            reap ~grace:2.0 d
          end)
        !live)

let start ~exe ~socket ~workers ~store_mb ~connections =
  if Sys.file_exists socket then Sys.remove socket;
  let args =
    [| exe; "serve"; "--socket"; socket; "--workers"; string_of_int workers; "--job-workers"; "1";
       "--store-mb"; string_of_int store_mb |]
  in
  let pid = Unix.create_process exe args Unix.stdin Unix.stderr Unix.stderr in
  let d = { pid; socket; conns = [||]; alive = true } in
  live := d :: !live;
  let deadline = Unix.gettimeofday () +. 20.0 in
  d.conns <- Array.init connections (fun _ -> connect_retry socket ~deadline);
  Array.iter (fun c -> ignore (require "ping" (Client.request c Protocol.Ping))) d.conns;
  d

(* The closed loop: each connection pulls the next stream position and
   sends it, until [seconds] have passed.  Returns the answers and the
   phase wall (start to last reply). *)
let drive d ~seed ~(stream : Gen.spec array) ~seconds =
  let next = Atomic.make 0 in
  let lock = Mutex.create () in
  let answers = ref [] in
  let t_start = Unix.gettimeofday () in
  let deadline = t_start +. seconds in
  let last = ref t_start in
  let loop conn =
    let continue = ref true in
    while !continue do
      let idx = Atomic.fetch_and_add next 1 in
      if idx >= Array.length stream || Unix.gettimeofday () >= deadline then continue := false
      else begin
        let spec = stream.(idx) in
        let netlist = (Gen.serve_network ~seed spec.Gen.net).Gen.text in
        let req = Protocol.Reduce (Gen.to_job spec ~netlist) in
        let t0 = Unix.gettimeofday () in
        let result = Client.request conn req in
        let t1 = Unix.gettimeofday () in
        let a = { idx; spec; sent = t0; rtt_s = t1 -. t0; result } in
        Mutex.lock lock;
        answers := a :: !answers;
        if t1 > !last then last := t1;
        Mutex.unlock lock;
        (* a transport failure ends this connection's loop *)
        match result with Error _ -> continue := false | Ok _ -> ()
      end
    done
  in
  let threads = Array.map (fun c -> Thread.create loop c) d.conns in
  Array.iter Thread.join threads;
  (List.sort (fun a b -> compare a.idx b.idx) !answers, !last -. t_start)

let stats d =
  let r = require "stats" (Client.request d.conns.(0) Protocol.Stats) in
  fun k -> float_of_string_opt (field r k) |> Option.value ~default:0.0
