// ports.h — well-known port names of the wirepipe service fabric.
//
// Modeled on the microkernel idiom (VSTa's sys/ports.h): services rendez-
// vous on small global port numbers, and the mapping from a port number to
// a transport endpoint is one shared function rather than scattered string
// literals. Here the transport is AF_UNIX sockets: port N of user U lives
// at $WIREPIPE_SOCKET_DIR/wirepipe-U-N.sock (default directory $TMPDIR or
// /tmp), and sharded fleets derive per-worker endpoints from a base port
// plus the worker index.
#pragma once

#include <cstdint>
#include <string>

namespace wp::svc {

using port_name = std::uint32_t;

constexpr port_name kPortEval = 1;     ///< evaluation service (EvalServer)
/// First port of a sharded worker fleet; worker i serves kPortShardBase+i.
constexpr port_name kPortShardBase = 16;

/// The AF_UNIX endpoint of `port` for this user. Honors
/// $WIREPIPE_SOCKET_DIR, else $TMPDIR, else /tmp. Pure path construction —
/// nothing is created.
std::string socket_path(port_name port);

/// socket_path(kPortEval).
std::string default_socket_path();

/// The one way server and client open an endpoint: a new close-on-exec
/// AF_UNIX stream socket connected to `path` or, with `listen`, bound and
/// listening there (a stale socket file is unlinked first), so a spawned
/// worker inherits no endpoint of its parent. -1 with errno on failure.
int open_unix_socket(const std::string& path, bool listen);

}  // namespace wp::svc
