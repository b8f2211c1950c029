type t = Conc.Striped_total.t

let create () =
  Conc.Striped_total.create ~slots:(Domain.recommended_domain_count () + 4)

let add = Conc.Striped_total.add
let incr t = add t 1
let read = Conc.Striped_total.read
