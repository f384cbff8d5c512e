// Seeded violations: each `pub` item is named only by its definition, a
// re-export, test code, a comment or a string literal.
mod inner;

pub use inner::reexported_only;

pub fn no_caller() {}

pub fn test_only() {}

pub fn comment_only() {}

pub fn string_only() {}

pub struct TestsDirOnly;

#[cfg(test)]
mod tests {
    #[test]
    fn calls() {
        super::test_only();
    }
}
