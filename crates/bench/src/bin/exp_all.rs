//! Runs every exhibit (E1-E20) in sequence, printing the full report —
//! the data source for EXPERIMENTS.md.
fn main() {
    print!("{}", bench::all_exhibits());
}
