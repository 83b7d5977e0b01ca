type t = { mask : int; pol : int }

let full = { mask = 0; pol = 0 }

let num_literals c =
  let rec count x acc = if x = 0 then acc else count (x lsr 1) (acc + (x land 1)) in
  count c.mask 0

let mem_pos c i = c.mask land (1 lsl i) <> 0 && c.pol land (1 lsl i) <> 0
let mem_neg c i = c.mask land (1 lsl i) <> 0 && c.pol land (1 lsl i) = 0
let add_pos c i = { mask = c.mask lor (1 lsl i); pol = c.pol lor (1 lsl i) }
let add_neg c i = { mask = c.mask lor (1 lsl i); pol = c.pol land lnot (1 lsl i) }

let to_tt n c =
  let acc = ref (Tt.create_const n true) in
  for i = 0 to n - 1 do
    if c.mask land (1 lsl i) <> 0 then begin
      let v = Tt.var n i in
      acc := Tt.and_ !acc (if c.pol land (1 lsl i) <> 0 then v else Tt.not_ v)
    end
  done;
  !acc

let literals c =
  let rec loop i acc =
    if 1 lsl i > c.mask then List.rev acc
    else if c.mask land (1 lsl i) <> 0 then
      loop (i + 1) ((i, c.pol land (1 lsl i) <> 0) :: acc)
    else loop (i + 1) acc
  in
  loop 0 []
