// The wire format and send-side interface of the live runtime.
//
// A driver broadcasts by handing (sender, round, payload) to a Transport;
// fated copies come back to each process through its Mailbox as
// NetEnvelopes.  Three transports exist: the fault-injecting LiveRouter
// (router.hpp), the schedule-replaying ScriptTransport (script.hpp), and
// the socket fabric's per-group GroupPort (socket_transport.hpp).  All three
// share one interface: a driver reports its crash through mark_dead, and the
// run's stop expedites every transport of the group.

#pragma once

#include <vector>

#include "common/types.hpp"
#include "net/channel.hpp"
#include "sim/message.hpp"

namespace indulgence {

/// One message copy on the wire.  `target_round` > 0 pins the receive round
/// (scripted replay: the schedule's Deliver/Delay fate); 0 means the
/// receiver's synchronizer classifies the copy by arrival time (live mode).
struct NetEnvelope {
  ProcessId sender = -1;  ///< group-local pid
  Round send_round = 0;
  Round target_round = 0;
  GroupId group = 0;      ///< owning consensus group
  MessagePtr payload;
  /// Actual emitter when the copy is forged (sim/byzantine.hpp): `sender`
  /// is the claimed id, `origin` the budgeted liar.  -1 = honest copy.
  ProcessId origin = -1;
};

using Mailbox = Channel<NetEnvelope>;

/// A copy still in flight (mailboxes, socket hold queues, reorder buffers)
/// when the run stopped; becomes a PendingRecord in the merged trace.
struct UndeliveredCopy {
  ProcessId sender = -1;
  ProcessId receiver = -1;
  Round send_round = 0;
  Round target_round = 0;
  GroupId group = 0;
};

/// Whoever owns a transport starts it and, once every driver has exited,
/// stops it; the copies still in flight then become the trace's pending
/// records.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Broadcast `payload` as `sender`'s round-`round` message to every other
  /// process (self-delivery is the driver's, mirroring the kernel's
  /// unconditional in-round self-delivery).  Thread-safe.
  virtual void dispatch(ProcessId sender, Round round, MessagePtr payload) = 0;

  /// Crashed processes stop receiving; copies addressed to them are dropped
  /// silently (the kernel does the same, and the validator never asks for
  /// deliveries to the dead).  A scripted replay's copies are fated by its
  /// schedule, so the default does nothing.
  virtual void mark_dead(ProcessId /*pid*/) {}

  /// Shutdown-drain accelerator: deliver everything still queued as fast as
  /// possible and stop injecting faults, so the final rounds settle fast.
  /// A scripted replay injects nothing, so the default does nothing.
  virtual void expedite() {}
};

}  // namespace indulgence
