(* what one port is doing *)
type port_state =
  | Idle
  | Configuring of { peer : int; ready_at : float }
      (* dark: the circuit to [peer] is being set up *)
  | Connected of { peer : int; since : float }
      (* light: transmitting to/from [peer] since [since] *)

type t = {
  n_ports : int;
  delta : float;
  inputs : port_state array;
  outputs : port_state array;
  mutable clock : float;
  mutable switches : int;
}

let create ~n_ports ~delta =
  if n_ports <= 0 then invalid_arg "Ocs.create: non-positive port count";
  if delta < 0. then invalid_arg "Ocs.create: negative delta";
  {
    n_ports;
    delta;
    inputs = Array.make n_ports Idle;
    outputs = Array.make n_ports Idle;
    clock = 0.;
    switches = 0;
  }

let n_ports t = t.n_ports
let delta t = t.delta
let now t = t.clock

let check_port t name p =
  if p < 0 || p >= t.n_ports then
    invalid_arg (Printf.sprintf "Ocs.%s: port %d outside [0, %d)" name p t.n_ports)

let settle state clock =
  match state with
  | Configuring { peer; ready_at } when ready_at <= clock ->
    Connected { peer; since = ready_at }
  | s -> s

let advance t time =
  if time < t.clock then invalid_arg "Ocs.advance: time moved backwards";
  t.clock <- time;
  for p = 0 to t.n_ports - 1 do
    t.inputs.(p) <- settle t.inputs.(p) time;
    t.outputs.(p) <- settle t.outputs.(p) time
  done

let input_state t p =
  check_port t "input_state" p;
  settle t.inputs.(p) t.clock

let output_state t p =
  check_port t "output_state" p;
  settle t.outputs.(p) t.clock

let describe = function
  | Idle -> "idle"
  | Configuring { peer; _ } -> Printf.sprintf "configuring (peer %d)" peer
  | Connected { peer; _ } -> Printf.sprintf "connected (peer %d)" peer

let connect t ~src ~dst =
  check_port t "connect" src;
  check_port t "connect" dst;
  match (input_state t src, output_state t dst) with
  | Idle, Idle ->
    let ready_at = t.clock +. t.delta in
    let state = Configuring { peer = dst; ready_at } in
    let state' = Configuring { peer = src; ready_at } in
    t.inputs.(src) <-
      (if t.delta = 0. then Connected { peer = dst; since = t.clock } else state);
    t.outputs.(dst) <-
      (if t.delta = 0. then Connected { peer = src; since = t.clock } else state');
    t.switches <- t.switches + 1;
    Ok ready_at
  | in_state, Idle ->
    Error (Printf.sprintf "input port %d is %s" src (describe in_state))
  | _, out_state ->
    Error (Printf.sprintf "output port %d is %s" dst (describe out_state))

let circuit_present t ~src ~dst =
  match input_state t src with
  | Configuring { peer; _ } | Connected { peer; _ } -> peer = dst
  | Idle -> false

let disconnect t ~src ~dst =
  check_port t "disconnect" src;
  check_port t "disconnect" dst;
  if circuit_present t ~src ~dst then begin
    t.inputs.(src) <- Idle;
    t.outputs.(dst) <- Idle;
    Ok ()
  end
  else Error (Printf.sprintf "no circuit %d -> %d" src dst)

let circuit_up t ~src ~dst =
  match input_state t src with
  | Connected { peer; _ } -> peer = dst
  | Idle | Configuring _ -> false

let established t =
  let acc = ref [] in
  for src = t.n_ports - 1 downto 0 do
    match input_state t src with
    | Connected { peer; _ } -> acc := (src, peer) :: !acc
    | Idle | Configuring _ -> ()
  done;
  !acc

let switch_count t = t.switches

let assert_consistent t =
  let fail fmt = Printf.ksprintf invalid_arg fmt in
  for src = 0 to t.n_ports - 1 do
    match t.inputs.(src) with
    | Idle -> ()
    | Configuring { peer; ready_at } ->
      (match t.outputs.(peer) with
      | Configuring { peer = src'; ready_at = r' }
        when src' = src && r' = ready_at ->
        ()
      | s -> fail "Ocs: input %d configuring but output %d is %s" src peer (describe s))
    | Connected { peer; since } ->
      (match t.outputs.(peer) with
      | Connected { peer = src'; since = s' } when src' = src && s' = since -> ()
      | s -> fail "Ocs: input %d connected but output %d is %s" src peer (describe s))
  done;
  (* no output port may reference an input that does not reference it back *)
  for dst = 0 to t.n_ports - 1 do
    match t.outputs.(dst) with
    | Idle -> ()
    | Configuring { peer; _ } | Connected { peer; _ } ->
      (match t.inputs.(peer) with
      | Configuring { peer = dst'; _ } | Connected { peer = dst'; _ } ->
        if dst' <> dst then
          fail "Ocs: output %d references input %d which points at %d" dst peer dst'
      | Idle -> fail "Ocs: output %d references idle input %d" dst peer)
  done
