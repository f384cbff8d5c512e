#[test]
fn builds() {
    let _ = demo::TestsDirOnly;
}
