type sample = {
  m_t : float;
  m_t_next : float;
  m_active : int;
  m_circuits : int;
  m_transmit_s : float;
  m_setup_s : float;
  m_busy_ports : int;
  m_rescheduled : int;
  m_spliced : int;
}

let mu = Mutex.create ()
let store : sample list ref = ref []

(* (side, port) -> (transmit_s, setup_s); side 0 = input, 1 = output *)
let ports : (int * int, float * float) Hashtbl.t = Hashtbl.create 64

let record s =
  if Control.enabled () then begin
    Mutex.lock mu;
    store := s :: !store;
    Mutex.unlock mu
  end

let samples () =
  Mutex.lock mu;
  let l = List.rev !store in
  Mutex.unlock mu;
  l

let port_busy ~src ~dst ~setup_s ~tx_s =
  if Control.enabled () then begin
    Mutex.lock mu;
    let bump key =
      let tx, su = try Hashtbl.find ports key with Not_found -> (0., 0.) in
      Hashtbl.replace ports key (tx +. tx_s, su +. setup_s)
    in
    bump (0, src);
    bump (1, dst);
    Mutex.unlock mu
  end

let port_totals () =
  Mutex.lock mu;
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) ports [] in
  Mutex.unlock mu;
  rows
  |> List.sort (fun ((sa, pa), _) ((sb, pb), _) -> compare (sa, pa) (sb, pb))
  |> List.map (fun ((side, port), (tx, su)) ->
         (Printf.sprintf "%s.%d" (if side = 0 then "in" else "out") port, tx, su))

let clear () =
  Mutex.lock mu;
  store := [];
  Hashtbl.reset ports;
  Mutex.unlock mu

let to_jsonl () =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let fl x = if Float.is_finite x then Printf.sprintf "%.9g" x else "null" in
  List.iter
    (fun s ->
      add
        "{\"t\": %s, \"t_next\": %s, \"active\": %d, \"circuits\": %d, \
         \"transmit_s\": %s, \"setup_s\": %s, \"busy_ports\": %d, \
         \"rescheduled\": %d, \"spliced\": %d}\n"
        (fl s.m_t) (fl s.m_t_next) s.m_active s.m_circuits (fl s.m_transmit_s)
        (fl s.m_setup_s) s.m_busy_ports s.m_rescheduled s.m_spliced)
    (samples ());
  Buffer.contents buf
