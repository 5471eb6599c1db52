//! `XKAAPI_WORKERS` / `XKAAPI_GRAIN_FACTOR` / `XKAAPI_PARK_TIMEOUT_US` /
//! `XKAAPI_STEAL_ROUNDS` / `XKAAPI_MAX_PENDING` / `XKAAPI_PIN` /
//! `XKAAPI_OFFLOAD_LATENCY_US` / `XKAAPI_IO_THREADS` environment
//! overrides of
//! [`xkaapi::core::Builder`]: the environment overrides *defaults* (so
//! benches and examples built on `Runtime::builder().build()` are tunable
//! without recompiling), while explicit setter calls always win (code that
//! sized structures to a requested worker count must not be resized from
//! the outside). Kept in a dedicated integration-test binary: environment
//! variables are process-global, and this is the only test in this
//! process, so mutating them cannot race another test.

use xkaapi::core::Runtime;

#[test]
fn env_vars_override_defaults_but_not_explicit_settings() {
    // Baseline: explicit settings, no env.
    let rt = Runtime::builder()
        .workers(2)
        .grain_factor(5)
        .park_timeout_us(250)
        .steal_rounds_before_park(16)
        .max_pending(77)
        .pin_workers(true)
        .build();
    assert_eq!(rt.num_workers(), 2);
    assert_eq!(rt.tunables().grain_factor, 5);
    assert_eq!(rt.tunables().park_timeout_us, 250);
    assert_eq!(rt.tunables().steal_rounds_before_park, 16);
    assert_eq!(rt.tunables().inject.max_pending, 77);
    assert!(rt.tunables().pin_workers);
    // Pinning is best effort: whether or not the syscall stuck, the
    // runtime computes correctly.
    let s = rt.foreach_reduce(0..1000, None, || 0u64, |a, i| *a += i as u64, |a, b| a + b);
    assert_eq!(s, 499_500);
    drop(rt);

    // Historical hardcoded values are the defaults.
    let rt = Runtime::builder().workers(1).build();
    assert_eq!(rt.tunables().park_timeout_us, 500);
    assert_eq!(rt.tunables().steal_rounds_before_park, 32);
    assert_eq!(rt.tunables().inject.max_pending, 4096);
    assert!(!rt.tunables().pin_workers, "pinning defaults off");
    assert_eq!(
        rt.tunables().offload,
        xkaapi::core::OffloadTunables::default(),
        "track tunables default untouched"
    );
    assert_eq!(rt.tunables().offload.launch_latency_us, 20);
    assert_eq!(rt.tunables().offload.io_threads, 2);
    drop(rt);

    // Single-threaded at this point (no other test in this binary, the
    // runtime above has been dropped and its workers joined).
    std::env::set_var("XKAAPI_WORKERS", "3");
    std::env::set_var("XKAAPI_GRAIN_FACTOR", "11");
    std::env::set_var("XKAAPI_PARK_TIMEOUT_US", "900");
    std::env::set_var("XKAAPI_STEAL_ROUNDS", "7");
    std::env::set_var("XKAAPI_MAX_PENDING", "123");
    std::env::set_var("XKAAPI_PIN", "1");
    std::env::set_var("XKAAPI_OFFLOAD_LATENCY_US", "77");
    std::env::set_var("XKAAPI_IO_THREADS", "4");

    // Env overrides the defaults…
    let rt = Runtime::builder().build();
    assert_eq!(
        rt.num_workers(),
        3,
        "XKAAPI_WORKERS must override the default"
    );
    assert_eq!(
        rt.tunables().grain_factor,
        11,
        "XKAAPI_GRAIN_FACTOR must override"
    );
    assert_eq!(
        rt.tunables().park_timeout_us,
        900,
        "XKAAPI_PARK_TIMEOUT_US must override"
    );
    assert_eq!(
        rt.tunables().steal_rounds_before_park,
        7,
        "XKAAPI_STEAL_ROUNDS must override"
    );
    assert_eq!(
        rt.tunables().inject.max_pending,
        123,
        "XKAAPI_MAX_PENDING must override"
    );
    assert!(rt.tunables().pin_workers, "XKAAPI_PIN must override");
    assert_eq!(
        rt.tunables().offload.launch_latency_us,
        77,
        "XKAAPI_OFFLOAD_LATENCY_US must override"
    );
    assert_eq!(
        rt.tunables().offload.io_threads,
        4,
        "XKAAPI_IO_THREADS must override"
    );
    // …and the overridden runtime still runs real work.
    let s = rt.foreach_reduce(0..1000, None, || 0u64, |a, i| *a += i as u64, |a, b| a + b);
    assert_eq!(s, 499_500);
    drop(rt);

    // …but never explicit calls: sized-to-request structures
    // (Reduction::with_slots) rely on this.
    let rt = Runtime::builder()
        .workers(2)
        .grain_factor(5)
        .park_timeout_us(123)
        .steal_rounds_before_park(9)
        .inject_policy(xkaapi::core::InjectPolicy {
            max_pending: 55,
            on_full: xkaapi::core::OnFull::Reject,
        })
        .pin_workers(false)
        .offload_launch_latency_us(9)
        .io_threads(1)
        .build();
    assert_eq!(
        rt.num_workers(),
        2,
        "explicit workers() must beat the environment"
    );
    assert_eq!(
        rt.tunables().grain_factor,
        5,
        "explicit grain_factor() must beat env"
    );
    assert_eq!(
        rt.tunables().park_timeout_us,
        123,
        "explicit park_timeout_us() must beat env"
    );
    assert_eq!(
        rt.tunables().steal_rounds_before_park,
        9,
        "explicit steal_rounds_before_park() must beat env"
    );
    assert_eq!(
        rt.tunables().inject.max_pending,
        55,
        "explicit inject_policy() must beat env"
    );
    assert_eq!(rt.tunables().inject.on_full, xkaapi::core::OnFull::Reject);
    assert!(
        !rt.tunables().pin_workers,
        "explicit pin_workers(false) must beat XKAAPI_PIN=1"
    );
    assert_eq!(
        rt.tunables().offload.launch_latency_us,
        9,
        "explicit offload_launch_latency_us() must beat env"
    );
    assert_eq!(
        rt.tunables().offload.io_threads,
        1,
        "explicit io_threads() must beat env"
    );
    drop(rt);

    // Malformed values are ignored (with a warning), not fatal.
    std::env::set_var("XKAAPI_WORKERS", "zero");
    std::env::set_var("XKAAPI_GRAIN_FACTOR", "-4");
    std::env::set_var("XKAAPI_PARK_TIMEOUT_US", "0");
    std::env::set_var("XKAAPI_STEAL_ROUNDS", "lots");
    std::env::set_var("XKAAPI_MAX_PENDING", "0");
    std::env::set_var("XKAAPI_PIN", "maybe");
    std::env::set_var("XKAAPI_OFFLOAD_LATENCY_US", "soon");
    std::env::set_var("XKAAPI_IO_THREADS", "0");
    let rt = Runtime::builder().build();
    assert!(rt.num_workers() >= 1);
    assert_eq!(
        rt.tunables().grain_factor,
        8,
        "junk env must fall back to the default"
    );
    assert_eq!(
        rt.tunables().park_timeout_us,
        500,
        "junk XKAAPI_PARK_TIMEOUT_US must fall back to the default"
    );
    assert_eq!(
        rt.tunables().steal_rounds_before_park,
        32,
        "junk XKAAPI_STEAL_ROUNDS must fall back to the default"
    );
    assert_eq!(
        rt.tunables().inject.max_pending,
        4096,
        "junk XKAAPI_MAX_PENDING must fall back to the default"
    );
    assert!(
        !rt.tunables().pin_workers,
        "junk XKAAPI_PIN must fall back to the default"
    );
    assert_eq!(
        rt.tunables().offload.launch_latency_us,
        20,
        "junk XKAAPI_OFFLOAD_LATENCY_US must fall back to the default"
    );
    assert_eq!(
        rt.tunables().offload.io_threads,
        2,
        "XKAAPI_IO_THREADS=0 is invalid (the io track needs a thread) and must fall back"
    );
    // An env-tuned runtime still runs real work (exercises the tuned
    // park path: tiny steal-round budget forces parking).
    std::env::set_var("XKAAPI_PARK_TIMEOUT_US", "200");
    std::env::set_var("XKAAPI_STEAL_ROUNDS", "1");
    std::env::set_var("XKAAPI_WORKERS", "3");
    std::env::set_var("XKAAPI_GRAIN_FACTOR", "11");
    std::env::set_var("XKAAPI_MAX_PENDING", "2");
    let rt = Runtime::builder().build();
    assert_eq!(rt.tunables().steal_rounds_before_park, 1);
    assert_eq!(rt.tunables().inject.max_pending, 2);
    let s = rt.foreach_reduce(0..1000, None, || 0u64, |a, i| *a += i as u64, |a, b| a + b);
    assert_eq!(s, 499_500);
    // The env-bounded admission window still serves submit traffic (Block
    // throttles the submitter at 2 pending jobs, nothing is lost).
    let handles: Vec<_> = (0..16u64)
        .map(|i| rt.submit(move |_ctx| i * 2).unwrap())
        .collect();
    let total: u64 = handles.into_iter().map(|h| h.wait()).sum();
    assert_eq!(total, (0..16u64).map(|i| i * 2).sum());
    drop(rt);

    std::env::remove_var("XKAAPI_WORKERS");
    std::env::remove_var("XKAAPI_GRAIN_FACTOR");
    std::env::remove_var("XKAAPI_PARK_TIMEOUT_US");
    std::env::remove_var("XKAAPI_STEAL_ROUNDS");
    std::env::remove_var("XKAAPI_MAX_PENDING");
    std::env::remove_var("XKAAPI_PIN");
    std::env::remove_var("XKAAPI_OFFLOAD_LATENCY_US");
    std::env::remove_var("XKAAPI_IO_THREADS");

    // XKAAPI_BENCH_TOLERANCE tunes the `smoke -- --check` regression gate
    // the same way: env overrides the default, junk falls back (the gate
    // must never be silently disabled by a typo). Same single-test binary
    // for the same reason — the variable is process-global.
    use xkaapi_bench::check::{tolerance_from_env, DEFAULT_TOLERANCE, TOLERANCE_ENV};
    assert_eq!(
        tolerance_from_env(),
        DEFAULT_TOLERANCE,
        "unset {TOLERANCE_ENV} must yield the default gate tolerance"
    );
    std::env::set_var(TOLERANCE_ENV, "0.25");
    assert_eq!(tolerance_from_env(), 0.25, "{TOLERANCE_ENV} must override");
    std::env::set_var(TOLERANCE_ENV, "not-a-number");
    assert_eq!(
        tolerance_from_env(),
        DEFAULT_TOLERANCE,
        "junk {TOLERANCE_ENV} must fall back to the default"
    );
    std::env::set_var(TOLERANCE_ENV, "-0.5");
    assert_eq!(
        tolerance_from_env(),
        DEFAULT_TOLERANCE,
        "a negative tolerance would fail every run; fall back instead"
    );
    std::env::remove_var(TOLERANCE_ENV);
}
