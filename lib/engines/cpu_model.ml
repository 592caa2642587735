let jit_per_value = 1
let bulk_per_value = 1
let hyrise_per_value = 60
let volcano_next_call = 120
let volcano_per_value = 8
let hash_op = 3
