// Mencius client: sends every request to a pre-configured coordinator
// replica (the closest one, per the paper's Section 7.1: "a client always
// sends its requests to the closest replica that is pre-configured based on
// our network delay measurements").
#pragma once

#include "mencius/messages.h"
#include "rpc/forwarding_client.h"

namespace domino::mencius {

using Client = rpc::ForwardingClient<ClientRequest, ClientReply>;

}  // namespace domino::mencius
