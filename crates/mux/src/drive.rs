//! Blocking entry points: sessions run to their end on the calling thread.
//!
//! [`drive_sender`] / [`drive_receiver`] are a one-session [`Mux`] over a
//! [`WallClock`] — the same loop that runs a farm, so a session behaves
//! the same alone as among thousands. [`drive_session`] runs a whole
//! group — one sender and its receivers — on a mux the caller built, so
//! the clock ([`crate::VirtualClock`] for a run that is a pure function of
//! its seeds), the obs handle, a flight recorder
//! ([`MuxConfig::flight_capacity`]) and metrics ([`Mux::bind_metrics`])
//! are the caller's choice. Machines are consumed (their results come back
//! in the reports); transports are borrowed, so `stats()` and transcripts
//! stay readable.

use std::collections::HashMap;

use pm_core::error::ProtocolError;
use pm_core::runtime::{
    ReceiverMachine, ReceiverReport, RuntimeConfig, SenderMachine, SessionReport,
};
use pm_net::{PollTransport, Token};
use pm_obs::Obs;

use crate::clock::{MuxClock, WallClock};
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

/// Run one sender and its receivers, each machine paired with the endpoint
/// it runs on, on `mux` (empty on entry) until every session has ended.
/// Returns the sender's verdict and the receivers', in the order given.
///
/// # Errors
/// Per session, those of [`drive_sender`] / [`drive_receiver`]; a session
/// the mux shed under an overload policy reports
/// [`ProtocolError::Inconsistent`].
pub fn drive_session<'a, C, S, R>(
    mux: &mut Mux<&'a mut dyn PollTransport, C>,
    rt: RuntimeConfig,
    sender: (S, &'a mut dyn PollTransport),
    receivers: impl IntoIterator<Item = (R, &'a mut dyn PollTransport)>,
) -> (
    Result<SessionReport, ProtocolError>,
    Vec<Result<ReceiverReport, ProtocolError>>,
)
where
    C: MuxClock,
    S: SenderMachine + 'static,
    R: ReceiverMachine + 'static,
{
    let s_tok = mux.add_sender(sender.0, sender.1, rt);
    let r_toks: Vec<Token> = receivers
        .into_iter()
        .map(|(machine, tp)| mux.add_receiver(machine, tp, rt))
        .collect();
    let mut outcomes: HashMap<Token, SessionOutcome> = mux.run().into_iter().collect();
    let sender = match outcomes.remove(&s_tok) {
        Some(SessionOutcome::Sender(verdict)) => verdict,
        _ => Err(no_outcome()),
    };
    let receivers = r_toks
        .iter()
        .map(|tok| match outcomes.remove(tok) {
            Some(SessionOutcome::Receiver(verdict)) => verdict,
            _ => Err(no_outcome()),
        })
        .collect();
    (sender, receivers)
}

/// `run` returns one outcome per session added and only an overload policy
/// sheds; `drive_sender` / `drive_receiver` configure none. Typed rather
/// than a panic.
fn no_outcome() -> ProtocolError {
    ProtocolError::Inconsistent("mux ended without this session's outcome".into())
}
