// EPaxos client: sends every request to a pre-configured (closest) replica,
// which acts as the command leader, and waits for that replica's reply.
#pragma once

#include "epaxos/messages.h"
#include "rpc/forwarding_client.h"

namespace domino::epaxos {

using Client = rpc::ForwardingClient<ClientRequest, ClientReply>;

}  // namespace domino::epaxos
