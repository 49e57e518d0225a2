// JSON string escaping for every hand-built JSON line: the service's
// responses, photon_cli's --report=json error block, and the bench artifacts.
#pragma once

#include <string>

namespace photon {

// Escapes `raw` for embedding in a JSON string literal: quotes, backslashes
// and every control byte (\n, \r, \t by name, the rest as \u00XX).
std::string json_escape(const std::string& raw);

}  // namespace photon
