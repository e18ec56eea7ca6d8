let edf ~deadline_of =
  Inter.Custom
    (fun a b ->
      match compare (deadline_of a) (deadline_of b) with
      | 0 -> Coflow.compare_arrival a b
      | c -> c)

type admission = {
  admitted : (int * float) list;
  rejected : (int * float) list;
  prt : Prt.t;
}

let admit ?(now = 0.) ?(order = Order.Ordered_port) ~deadline_of ~delta
    ~bandwidth coflows =
  let ordered =
    Inter.sort (edf ~deadline_of) ~bandwidth coflows
  in
  let prt = Prt.create () in
  let admitted = ref [] and rejected = ref [] in
  List.iter
    (fun (c : Coflow.t) ->
      (* plan once, on the real table; rejection removes exactly the
         windows this plan made, so it leaves no trace. Not
         [retract_coflow]: ids are not checked for uniqueness, and an
         admitted Coflow sharing this id must keep its windows. *)
      let plan = Sunflow.schedule ~prt ~now ~order ~delta ~bandwidth c in
      if plan.finish <= deadline_of c then
        admitted := (c.id, plan.finish) :: !admitted
      else begin
        List.iter
          (fun r -> ignore (Prt.remove prt r : bool))
          plan.reservations;
        rejected := (c.id, plan.finish) :: !rejected
      end)
    ordered;
  let sorted l = List.sort (fun (a, _) (b, _) -> compare a b) l in
  { admitted = sorted !admitted; rejected = sorted !rejected; prt }
