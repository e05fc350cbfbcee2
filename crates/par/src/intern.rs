//! A global name interner for dynamically composed metric names.
//!
//! The whole observability stack — the executor's named-metric
//! registry (region, counter and histogram names alike) and the trace
//! rings — deliberately takes `&'static str` so recording never clones
//! or allocates strings. That is the right call for names known at
//! compile time, but multi-tenant serving composes names at runtime
//! (`serve.<tenant>.queries`). [`intern`] bridges the gap: each unique
//! string is leaked exactly once and every later request for the same
//! text returns the *same* `&'static str` (pointer-equal), so interned
//! names behave exactly like literals downstream.
//!
//! The set only ever grows, by design: tenant names are a small,
//! bounded vocabulary (one leak per distinct name for the process
//! lifetime), not arbitrary user input. Interning the same name twice
//! costs one `BTreeSet` lookup and allocates nothing.

use std::collections::BTreeSet;

use parking_lot::Mutex;

static INTERNED: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());

/// Returns a `&'static str` with the same text as `name`, leaking at
/// most one allocation per distinct string for the process lifetime.
/// Repeated calls with equal text return the identical (pointer-equal)
/// reference, so interned names can be used anywhere the metrics layer
/// expects a `&'static str` literal.
pub fn intern(name: &str) -> &'static str {
    let mut set = INTERNED.lock();
    if let Some(existing) = set.get(name) {
        return existing;
    }
    let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
    set.insert(leaked);
    leaked
}

#[cfg(test)]
mod tests {
    use super::intern;

    #[test]
    fn repeated_interning_returns_the_same_pointer() {
        let a = intern("serve.tenant-a.queries");
        let b = intern(&format!("serve.{}.queries", "tenant-a"));
        assert_eq!(a, b);
        assert!(std::ptr::eq(a, b), "interning must be pointer-stable");
    }

    #[test]
    fn distinct_names_stay_distinct() {
        let a = intern("serve.alpha.swaps");
        let b = intern("serve.beta.swaps");
        assert_ne!(a, b);
        assert!(!std::ptr::eq(a, b));
    }

    #[test]
    fn interned_names_work_as_counter_keys() {
        let exec = crate::Executor::sequential().with_metrics();
        let name = intern("serve.test-tenant.ticks");
        exec.add_counter(name, 3);
        exec.add_counter(intern("serve.test-tenant.ticks"), 2);
        let m = exec.take_metrics();
        assert_eq!(m.get_counter(name).unwrap().value, 5);
    }
}
