let edf ~deadline_of =
  Inter.Custom (fun a b -> compare (deadline_of a) (deadline_of b))

type admission = {
  admitted : (int * float) list;
  rejected : (int * float) list;
  prt : Prt.t;
}

let admit ?(now = 0.) ?(order = Order.Ordered_port) ~deadline_of ~delta
    ~bandwidth coflows =
  let ordered = Service_order.sort (edf ~deadline_of) ~bandwidth coflows in
  let prt = Prt.create () in
  let admitted = ref [] and rejected = ref [] in
  List.iter
    (fun (c : Coflow.t) ->
      (* plan once, on the real table; rejection retracts exactly the
         windows this plan made, so it leaves no trace, even when an
         admitted Coflow shares the id *)
      let plan = Sunflow.schedule ~prt ~now ~order ~delta ~bandwidth c in
      if plan.finish <= deadline_of c then
        admitted := (c.id, plan.finish) :: !admitted
      else begin
        ignore (Prt.retract prt plan.reservations : int);
        rejected := (c.id, plan.finish) :: !rejected
      end)
    ordered;
  let sorted l = List.sort (fun (a, _) (b, _) -> compare a b) l in
  { admitted = sorted !admitted; rejected = sorted !rejected; prt }
