//! Stand-in kept only for perfbench's run stamp; it goes with the next
//! change to the benchmark. The pool is flat and never pins.

/// The CPUs the pool may use, as one flat set.
pub struct Topology;

impl Topology {
    /// The available-parallelism CPU count, e.g. `2 cpus`.
    #[must_use]
    pub fn summary(&self) -> String {
        let cpus = std::thread::available_parallelism().map_or(1, usize::from);
        format!("{cpus} cpus")
    }
}

/// This process's flat CPU set.
#[must_use]
pub fn current() -> Topology {
    Topology
}

/// Always `false`: workers are never pinned.
#[must_use]
pub fn pinning_enabled() -> bool {
    false
}
