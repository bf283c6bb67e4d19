#pragma once

/// Live serving frontend (DESIGN §9–10): the layer that promotes the hybrid
/// scheduler from a DES-driven model to an in-process async server, plus
/// the live failure model (deadlines, retry/hedge, overload ladder,
/// crash-consistent journaling, graceful drain).
///
///   clock.hpp            serve::Clock — the fenced time source (virtual +
///                        wall backends; wall reads only in clock.cpp)
///   completion_queue.hpp bounded MPSC queue feeding realtime arrivals
///   serve_config.hpp     one run's workload/scheduler/serving knobs plus
///                        the live failure model
///   load_driver.hpp      seeded open-loop load, planned upfront
///   journal.hpp          sv2 framed journal: conservation ledger, length
///                        prefixes, the bounded framing reader, fsync sink
///   record.hpp           sv2 journal codec + crash recovery
///   live_server.hpp      the driver: runs core::HybridServer accelerated
///                        or on the wall clock, journals, reports
///   replay.hpp           recorded trace → the same engine, bit-exact
///   chaos.hpp            serve --resume / --chaos: journal recovery and
///                        the seeded kill/recover/resume/replay harness
#include "serve/chaos.hpp"             // IWYU pragma: export
#include "serve/clock.hpp"             // IWYU pragma: export
#include "serve/completion_queue.hpp"  // IWYU pragma: export
#include "serve/journal.hpp"           // IWYU pragma: export
#include "serve/live_server.hpp"       // IWYU pragma: export
#include "serve/load_driver.hpp"       // IWYU pragma: export
#include "serve/record.hpp"            // IWYU pragma: export
#include "serve/replay.hpp"            // IWYU pragma: export
#include "serve/serve_config.hpp"      // IWYU pragma: export
