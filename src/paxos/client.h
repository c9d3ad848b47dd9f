// Multi-Paxos client: sends every request to the fixed leader and waits for
// the leader's reply.
#pragma once

#include "paxos/messages.h"
#include "rpc/forwarding_client.h"

namespace domino::paxos {

using Client = rpc::ForwardingClient<ClientRequest, ClientReply>;

}  // namespace domino::paxos
