//! Process-termination signals as a pollable flag.
//!
//! The daemon drains in-flight work on SIGTERM/SIGINT instead of dying
//! mid-run. Rust's std exposes no signal API, and the vendored-only policy
//! rules out the `libc`/`signal-hook` crates — but every Rust binary on
//! Unix already links the platform C library, so the two calls needed are
//! declared directly. The handler is async-signal-safe: it stores one
//! atomic flag and returns; the accept loop polls [`triggered`] and turns
//! it into a graceful shutdown.

use std::sync::atomic::{AtomicBool, Ordering};

/// Set by the signal handler; read by [`triggered`].
static TERMINATE: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
extern "C" {
    /// `signal(2)` from the platform C library, with the handler typed as a
    /// proper function pointer (no integer casts of `SIG_DFL` needed — the
    /// daemon only ever installs, never restores).
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
}

#[cfg(unix)]
extern "C" fn on_terminate(_signum: i32) {
    TERMINATE.store(true, Ordering::SeqCst);
}

/// Installs the SIGINT (2) and SIGTERM (15) handlers. Idempotent; a no-op
/// on non-Unix platforms (where [`triggered`] simply never fires).
pub fn install() {
    #[cfg(unix)]
    // SAFETY: `on_terminate` is async-signal-safe (a single atomic store)
    // and stays valid for the life of the process.
    unsafe {
        signal(2, on_terminate);
        signal(15, on_terminate);
    }
}

/// True once SIGINT or SIGTERM has been delivered.
pub fn triggered() -> bool {
    TERMINATE.load(Ordering::SeqCst)
}
