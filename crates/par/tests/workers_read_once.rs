//! `PM_PAR_WORKERS` is read at the first `available_workers()` call of a
//! process and never again. Its own test binary, so that no other test
//! shares the process environment it sets.

use pm_par::{available_workers, Pool};

const WORKERS_ENV: &str = "PM_PAR_WORKERS";

#[test]
fn the_override_is_read_at_first_use_only() {
    std::env::set_var(WORKERS_ENV, "3");
    assert_eq!(available_workers(), 3);
    std::env::set_var(WORKERS_ENV, "5");
    assert_eq!(available_workers(), 3, "a later value is not read");
    assert_eq!(Pool::auto().workers(), 3);
}
