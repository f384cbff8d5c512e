// Clean twin: every `pub` item has a caller outside tests — a sibling fn,
// an example, a bench bin, the benchmark package — or a pragma saying why
// it stays.
pub fn used_here() {}

pub fn used_by_example() {}

pub fn used_by_bin() {}

pub fn used_by_marsbench() {}

// audit:allow(orphan-pub) — reference twin of `used_here`
pub fn reference_twin() {}

#[cfg(test)]
fn helper() {}

fn caller() {
    used_here();
}
