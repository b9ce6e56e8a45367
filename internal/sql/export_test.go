package sql

// KillLog closes the write-ahead log underneath a durable session, for the
// external tests: every further append fails, as it would on a dead disk.
func KillLog(db *DB) error { return db.dur.WAL().Close() }
