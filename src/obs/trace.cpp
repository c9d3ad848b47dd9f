#include "obs/trace.h"

namespace domino::obs {

const char* event_kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kNodeCrash: return "node_crash";
    case EventKind::kNodeRecover: return "node_recover";
    case EventKind::kLinkPartition: return "link_partition";
    case EventKind::kLinkHeal: return "link_heal";
    case EventKind::kLinkDegrade: return "link_degrade";
    case EventKind::kLinkRestore: return "link_restore";
    case EventKind::kRouteChange: return "route_change";
    case EventKind::kClientRetry: return "client_retry";
    case EventKind::kClientAbandon: return "client_abandon";
    case EventKind::kRecoveryStart: return "recovery_start";
    case EventKind::kRecoveryDone: return "recovery_done";
  }
  return "?";
}

}  // namespace domino::obs
