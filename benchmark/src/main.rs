//! `dk_benchmark`: see `benchmark/README.md`.

use dk_linalg::workspace::CountingAllocator;

// `dk_linalg.allocs_per_op` reads this through `alloc_counts()`. Two
// relaxed atomic adds per allocation; the untraced runs carry it too,
// so traced and untraced runs are the same program.
#[global_allocator]
static COUNTER: CountingAllocator = CountingAllocator;

fn main() -> std::process::ExitCode {
    dk_benchmark::cli::main(std::env::args().skip(1).collect())
}
