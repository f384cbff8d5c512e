pub fn reexported_only() {}
