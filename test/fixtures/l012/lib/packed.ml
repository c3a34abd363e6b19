let name = "packed"
