// Graceful-interruption support (DESIGN.md §11).
//
// A SIGINT/SIGTERM handler may only touch a `volatile std::sig_atomic_t`,
// so the contract is a single stop flag: the handler sets it, and trainers
// poll stop_requested() at batch boundaries — the only safe preemption
// points — then write a final checkpoint and return cleanly with
// TrainResult::interrupted set. Nothing in the library ever exits or
// aborts from a signal.
//
// The flag is process-wide on purpose: one Ctrl-C stops every trainer in
// the process (e.g. a concurrent run_sweep), each finishing its current
// batch first. Call clear_stop() to run another training job afterwards.
#pragma once

namespace zkg::ckpt {

/// Installs the SIGINT/SIGTERM handlers that set the stop flag. Idempotent;
/// call it once near the top of main(). The library never installs them
/// itself: a binary that wants Ctrl-C to checkpoint and stop calls this.
void install_signal_handlers();

/// True once a stop has been requested (signal or request_stop()).
bool stop_requested();

/// Programmatic equivalent of delivering SIGINT (tests, embedding apps).
void request_stop();

/// Re-arms training after a handled stop.
void clear_stop();

}  // namespace zkg::ckpt
