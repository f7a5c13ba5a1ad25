//! `test-only-pub` fixture, linted at `crates/demo/tests/it.rs`: an
//! integration test, so its calls are not callers.

#[test]
fn hooks() {
    demo::called_in_tests_dir();
    demo::allowed_hook();
}
