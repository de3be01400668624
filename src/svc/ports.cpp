#include "svc/ports.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace wp::svc {

std::string socket_path(port_name port) {
  const char* dir = std::getenv("WIREPIPE_SOCKET_DIR");
  if (dir == nullptr || *dir == '\0') dir = std::getenv("TMPDIR");
  if (dir == nullptr || *dir == '\0') dir = "/tmp";
  std::string path(dir);
  if (!path.empty() && path.back() == '/') path.pop_back();
  path += "/wirepipe-" + std::to_string(::getuid()) + "-" +
          std::to_string(port) + ".sock";
  return path;
}

std::string default_socket_path() { return socket_path(kPortEval); }

int open_unix_socket(const std::string& path, bool listen) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    errno = ENAMETOOLONG;
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  const auto* address = reinterpret_cast<const sockaddr*>(&addr);
  if (listen) ::unlink(path.c_str());
  if (listen ? ::bind(fd, address, sizeof addr) == 0 && ::listen(fd, 64) == 0
             : ::connect(fd, address, sizeof addr) == 0)
    return fd;
  const int error = errno;
  ::close(fd);
  errno = error;
  return -1;
}

}  // namespace wp::svc
