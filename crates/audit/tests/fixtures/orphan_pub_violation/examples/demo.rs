// comment_only() is named here, in a comment only.
fn main() {
    println!("string_only()");
}
