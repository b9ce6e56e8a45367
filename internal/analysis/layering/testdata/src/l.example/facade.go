// Package facade stands for the module's root package, which re-exports the
// oracles and therefore is itself out of bounds for serving packages.
package facade

import "l.example/internal/core"

var Everything core.WSD
