//! The survey's exhibits, pinned: `bench::all_exhibits` (what `exp_all`
//! prints) must equal the committed `experiments_output.txt` byte for
//! byte. A mismatch names the first exhibit that differs and its first
//! differing line.
//!
//! After an intended change to an exhibit, regenerate the file with
//! `cargo run --release -p bench --bin exp_all > experiments_output.txt`
//! and carry the new numbers into EXPERIMENTS.md.

#[test]
fn exhibits_match_experiments_output() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../experiments_output.txt");
    let want = std::fs::read_to_string(path).expect("read experiments_output.txt");
    let got = bench::all_exhibits();
    if got == want {
        return;
    }
    let titles: Vec<String> = bench::all_experiments()
        .iter()
        .map(|(id, title, _)| format!("{id}: {title}"))
        .collect();
    let mut exhibit = "(before the first exhibit)";
    let mut want_lines = want.lines();
    for (n, line) in got.lines().enumerate() {
        if let Some(t) = titles.iter().find(|t| *t == line) {
            exhibit = t;
        }
        let expected = want_lines.next();
        if expected != Some(line) {
            panic!(
                "exhibit {exhibit} differs from experiments_output.txt at line {}:\n  \
                 committed: {expected:?}\n  computed:  {line:?}",
                n + 1
            );
        }
    }
    panic!(
        "experiments_output.txt differs after the last computed line (in {exhibit}): \
         trailing text or line endings"
    );
}
