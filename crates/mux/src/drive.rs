//! Blocking entry points: one session on the calling thread.
//!
//! Each is a one-session [`Mux`] over a [`WallClock`] — the same loop that
//! runs a farm, so a session behaves the same alone as among thousands.
//! The machine is consumed (its results come back in the report); the
//! transport is borrowed, so `stats()` and transcripts stay readable.
//! Callers that want a flight-recorder postmortem, metrics or a virtual
//! clock build the `Mux` themselves ([`MuxConfig::flight_capacity`],
//! [`Mux::bind_metrics`], [`crate::VirtualClock`]).

use pm_core::error::ProtocolError;
use pm_core::runtime::{
    ReceiverMachine, ReceiverReport, RuntimeConfig, SenderMachine, SessionReport,
};
use pm_net::PollTransport;
use pm_obs::Obs;

use crate::clock::WallClock;
use crate::mux::{Mux, MuxConfig, SessionOutcome};

/// Drive a sender machine to completion, emitting runtime lifecycle events
/// (`stall_timeout`, `receiver_evicted`, `session_end`) to `obs`
/// ([`Obs::null`] for none).
///
/// # Errors
/// Protocol errors from the machine, fatal transport failures,
/// [`ProtocolError::Quarantined`] when corruption exceeds the resilience
/// policy's tolerance, or [`ProtocolError::Stalled`] — carrying the last
/// event that counted as progress — when nothing happens for the
/// configured stall timeout.
pub fn drive_sender<S, T>(
    machine: S,
    transport: &mut T,
    rt: &RuntimeConfig,
    obs: &Obs,
) -> Result<SessionReport, ProtocolError>
where
    S: SenderMachine + 'static,
    T: PollTransport + ?Sized,
{
    let mut mux = Mux::new(MuxConfig::default(), WallClock::new()).with_obs(obs.clone());
    mux.add_sender(machine, transport, *rt);
    match mux.run().pop() {
        Some((_, SessionOutcome::Sender(result))) => result,
        _ => Err(no_outcome()),
    }
}

/// Drive a receiver machine until the transfer is complete *and* the
/// sender has closed the session (so late polls still get `Done` answers),
/// or until the sender disappears; lifecycle events (`stall_timeout`,
/// `linger_expired`, `session_end`) go to `obs`.
///
/// # Errors
/// [`ProtocolError::SenderGone`] if FIN arrives before completion,
/// [`ProtocolError::Stalled`] when nothing happens for the stall timeout
/// (unless the transfer is already complete — then the lost FIN is
/// forgiven after `complete_linger` and the data returned), plus the
/// machine, transport and quarantine errors of [`drive_sender`].
pub fn drive_receiver<R, T>(
    machine: R,
    transport: &mut T,
    rt: &RuntimeConfig,
    obs: &Obs,
) -> Result<ReceiverReport, ProtocolError>
where
    R: ReceiverMachine + 'static,
    T: PollTransport + ?Sized,
{
    let mut mux = Mux::new(MuxConfig::default(), WallClock::new()).with_obs(obs.clone());
    mux.add_receiver(machine, transport, *rt);
    match mux.run().pop() {
        Some((_, SessionOutcome::Receiver(result))) => result,
        _ => Err(no_outcome()),
    }
}

/// `run` returns one outcome per session added and only an overload policy
/// sheds; neither wrapper configures one. Typed rather than a panic.
fn no_outcome() -> ProtocolError {
    ProtocolError::Inconsistent("mux ended without this session's outcome".into())
}
