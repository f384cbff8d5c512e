fn main() { demo::used_by_marsbench(); }
