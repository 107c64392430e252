//! Structured protocol errors.
//!
//! The coherence controllers historically panicked (or hit `unreachable!`)
//! when a message arrived that the protocol has no transition for. Those
//! paths now surface a [`ProtocolError`] instead, which the simulation loop
//! propagates as a first-class error — so a corrupted or mis-modelled
//! protocol state is diagnosable rather than fatal, and robustness tests can
//! assert on it. The same type carries the violations found by `row-check`'s
//! coherence invariant sweep (SWMR, directory/private agreement, Blocked
//! queue boundedness).

use row_common::ids::{CoreId, LineAddr};

use crate::directory::DirState;
use crate::msg::{Endpoint, Msg};
use crate::private::PrivState;

/// A coherence-protocol invariant was broken.
///
/// Every variant names the line and agent involved so a failing stress run
/// points directly at the offending transition.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ProtocolError {
    /// The directory received a message kind it has no transition for.
    DirUnexpectedMessage {
        /// The directory bank.
        tile: usize,
        /// The offending message.
        msg: Msg,
    },
    /// A private cache received a message kind it has no transition for.
    CacheUnexpectedMessage {
        /// The receiving core.
        core: CoreId,
        /// The offending message.
        msg: Msg,
    },
    /// Data arrived at a private cache with no matching MSHR.
    DataWithoutMshr {
        /// The receiving core.
        core: CoreId,
        /// The filled line.
        line: LineAddr,
    },
    /// An unlock was issued for a line that is not locked.
    UnlockOfUnlocked {
        /// The unlocking core.
        core: CoreId,
        /// The line.
        line: LineAddr,
    },
    /// SWMR violated: more than one private cache owns (M/E) the line.
    MultipleOwners {
        /// The line.
        line: LineAddr,
        /// Every core holding the line in M or E.
        owners: Vec<CoreId>,
    },
    /// A private cache's state for a line disagrees with its home
    /// directory entry.
    DirectoryMismatch {
        /// The line.
        line: LineAddr,
        /// The disagreeing core.
        core: CoreId,
        /// What the home directory believes.
        dir: DirState,
        /// What the private cache holds.
        cache: Option<PrivState>,
    },
    /// A Blocked directory entry's wait queue exceeded its bound.
    BlockedQueueOverflow {
        /// The directory bank.
        tile: usize,
        /// The blocked line.
        line: LineAddr,
        /// Observed queue depth.
        depth: usize,
        /// The configured (or derived) bound.
        bound: usize,
    },
    /// The recoverable transport exhausted its retransmission budget for a
    /// message: the channel is effectively severed (fault rates beyond what
    /// bounded retry can mask), so forward progress can no longer be
    /// guaranteed.
    TransportGiveUp {
        /// Sending endpoint of the abandoned channel message.
        src: Endpoint,
        /// Destination endpoint.
        dst: Endpoint,
        /// Channel sequence number of the abandoned message.
        seq: u64,
        /// Transmission attempts made before giving up.
        attempts: u32,
        /// The abandoned protocol message.
        msg: Msg,
    },
    /// A line in the lock table is not held in M, so the "external requests
    /// stall against locked lines" guarantee cannot hold.
    LockedLineNotModified {
        /// The locking core.
        core: CoreId,
        /// The line.
        line: LineAddr,
        /// The state actually held.
        state: Option<PrivState>,
    },
    /// A sequenced transport frame arrived but no transport is configured —
    /// the frame queue is corrupt (only a transport produces such frames).
    TransportAbsent {
        /// Sending endpoint of the orphaned frame.
        src: Endpoint,
        /// Destination endpoint.
        dst: Endpoint,
        /// Channel sequence number.
        seq: u64,
    },
    /// The directory received more invalidation acks than it was waiting
    /// for: the ack count would underflow, meaning the sharer bookkeeping of
    /// an in-flight transaction is corrupt.
    InvAckUnderflow {
        /// The directory bank.
        tile: usize,
        /// The line whose transaction miscounted.
        line: LineAddr,
        /// The core whose ack had no matching pending invalidation.
        from: CoreId,
    },
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::DirUnexpectedMessage { tile, msg } => {
                write!(f, "dir bank {tile}: unexpected message {msg:?}")
            }
            ProtocolError::CacheUnexpectedMessage { core, msg } => {
                write!(f, "core {core}: private cache received unexpected {msg:?}")
            }
            ProtocolError::DataWithoutMshr { core, line } => {
                write!(f, "core {core}: Data for line {line} with no MSHR")
            }
            ProtocolError::UnlockOfUnlocked { core, line } => {
                write!(f, "core {core}: unlock of unlocked line {line}")
            }
            ProtocolError::MultipleOwners { line, owners } => {
                write!(f, "SWMR violated on line {line}: owners {owners:?}")
            }
            ProtocolError::DirectoryMismatch {
                line,
                core,
                dir,
                cache,
            } => write!(
                f,
                "line {line}: directory says {dir:?} but core {core} holds {cache:?}"
            ),
            ProtocolError::BlockedQueueOverflow {
                tile,
                line,
                depth,
                bound,
            } => write!(
                f,
                "dir bank {tile}: Blocked entry for {line} queues {depth} requests (bound {bound})"
            ),
            ProtocolError::TransportGiveUp {
                src,
                dst,
                seq,
                attempts,
                msg,
            } => write!(
                f,
                "transport gave up on {msg:?} ({src:?} -> {dst:?}, seq {seq}) \
                 after {attempts} attempts"
            ),
            ProtocolError::LockedLineNotModified { core, line, state } => write!(
                f,
                "core {core}: locked line {line} held in {state:?}, not M"
            ),
            ProtocolError::TransportAbsent { src, dst, seq } => write!(
                f,
                "sequenced frame ({src:?} -> {dst:?}, seq {seq}) arrived \
                 without a transport configured"
            ),
            ProtocolError::InvAckUnderflow { tile, line, from } => write!(
                f,
                "dir bank {tile}: InvAck from core {from} for {line} with no \
                 pending invalidation (ack count underflow)"
            ),
        }
    }
}

impl std::error::Error for ProtocolError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_line_and_agents() {
        let e = ProtocolError::MultipleOwners {
            line: LineAddr::new(7),
            owners: vec![CoreId::new(0), CoreId::new(3)],
        };
        let s = e.to_string();
        assert!(s.contains("SWMR"), "{s}");
        let e = ProtocolError::UnlockOfUnlocked {
            core: CoreId::new(1),
            line: LineAddr::new(9),
        };
        assert!(e.to_string().contains("unlock"));
        let e = ProtocolError::TransportGiveUp {
            src: Endpoint::Core(CoreId::new(2)),
            dst: Endpoint::Dir(0),
            seq: 11,
            attempts: 16,
            msg: Msg::Inv {
                line: LineAddr::new(4),
            },
        };
        let s = e.to_string();
        assert!(s.contains("gave up") && s.contains("16 attempts"), "{s}");
    }
}
