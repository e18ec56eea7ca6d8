include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  (* one multiplication mixes the bits, so strided ids spread as well
     as consecutive ones *)
  let hash k =
    let h = k * 0x2545F4914F6CDD1D in
    h lxor (h lsr 32)
end)
