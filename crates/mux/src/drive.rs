//! One group, one mux: [`drive_session`] runs a sender and all its
//! receivers to their end on the calling thread.
//!
//! The mux is the caller's, so the clock ([`crate::VirtualClock`] for a run
//! that is a pure function of its seeds, [`crate::WallClock`] where a
//! transport reads a real socket or a real clock), the obs handle, a
//! flight recorder ([`MuxConfig::flight_capacity`](crate::MuxConfig)) and
//! metrics ([`Mux::bind_metrics`]) are the caller's choice. Machines are
//! consumed (their results come back in the reports); transports are
//! borrowed, so `stats()` and transcripts stay readable.

use pm_core::error::ProtocolError;
use pm_core::runtime::{
    ReceiverMachine, ReceiverReport, RuntimeConfig, SenderMachine, SessionReport,
};
use pm_net::PollTransport;

use crate::clock::MuxClock;
use crate::mux::{Mux, SessionOutcome};

/// Run one sender and its receivers, each machine paired with the endpoint
/// it runs on, on `mux` (empty on entry) until every session has ended.
/// Returns the sender's verdict and the receivers', in the order given.
///
/// The sender ends once its completion policy is met (or, with
/// `eviction_timeout` set, degraded once the silent receivers are
/// evicted). A receiver ends once the transfer is complete *and* the
/// sender has closed the session, so late polls still get `Done` answers.
/// Lifecycle events (`stall_timeout`, `receiver_evicted`,
/// `linger_expired`, `session_end`) go to the mux's obs.
///
/// # Errors
/// Per session: protocol errors from the machine; fatal transport
/// failures, including a transient send failure that outlived its
/// retries; [`ProtocolError::Quarantined`] when corruption exceeds the
/// resilience policy's tolerance; [`ProtocolError::Stalled`] — carrying
/// the last event that counted as progress — when nothing happens for
/// the stall timeout (a receiver whose transfer is already complete is
/// instead let go after `complete_linger`, its lost FIN forgiven); and
/// for a receiver, [`ProtocolError::SenderGone`] if FIN arrives before
/// completion. A session the mux shed under an overload policy reports
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
    let r_toks: Vec<_> = receivers
        .into_iter()
        .map(|(machine, tp)| mux.add_receiver(machine, tp, rt))
        .collect();
    // Placed by slot: outcomes come in completion order, after any a
    // caller left untaken, so the last one in a slot is this group's.
    let mut outcomes: Vec<Option<SessionOutcome>> = Vec::new();
    for (tok, outcome) in mux.run() {
        if outcomes.len() <= tok.slot() {
            outcomes.resize_with(tok.slot() + 1, || None);
        }
        outcomes[tok.slot()] = Some(outcome);
    }
    let mut take = |slot: usize| outcomes.get_mut(slot).and_then(Option::take);
    let sender = match take(s_tok.slot()) {
        Some(SessionOutcome::Sender(verdict)) => verdict,
        _ => Err(no_outcome()),
    };
    let receivers = r_toks
        .iter()
        .map(|tok| match take(tok.slot()) {
            Some(SessionOutcome::Receiver(verdict)) => verdict,
            _ => Err(no_outcome()),
        })
        .collect();
    (sender, receivers)
}

/// `run` returns one outcome per session added, and only an overload
/// policy sheds. Typed rather than a panic.
fn no_outcome() -> ProtocolError {
    ProtocolError::Inconsistent("mux ended without this session's outcome".into())
}
