package main

import (
	"fmt"
	"math"

	"maybms/internal/relation"
	"maybms/internal/sql"
)

// fingerprint identifies a result independently of row order: the row count
// plus the wrapping sum and the xor of one 64-bit hash per row. A row's hash
// covers every value's kind and payload and, for across-world answers, the
// exact bits of its confidence — so a served answer matches only if it is
// the in-process answer bit for bit, while shard order is free to differ.
type fingerprint struct {
	Rows int
	Sum  uint64
	Xor  uint64
}

func (f fingerprint) String() string {
	return fmt.Sprintf("%d rows/%016x/%016x", f.Rows, f.Sum, f.Xor)
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func hashU64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * fnvPrime
		v >>= 8
	}
	return h
}

// add folds one row into the fingerprint.
func (f *fingerprint) add(row []relation.Value, conf float64, hasConf bool) {
	h := uint64(fnvOffset)
	for _, v := range row {
		h = (h ^ uint64(v.Kind())) * fnvPrime
		switch v.Kind() {
		case relation.KindInt:
			h = hashU64(h, uint64(v.AsInt()))
		case relation.KindString:
			for _, b := range []byte(v.AsString()) {
				h = (h ^ uint64(b)) * fnvPrime
			}
			h = (h ^ 0xff) * fnvPrime
		}
	}
	if hasConf {
		h = hashU64(h, math.Float64bits(conf))
	}
	// A final avalanche keeps the sum and xor of similar rows from cancelling.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	f.Rows++
	f.Sum += h
	f.Xor ^= h
}

// rowSource is the iterator surface shared by sql.Rows (the in-process
// reference) and client.Rows (the served answer).
type rowSource interface {
	Columns() []string
	Next() bool
	Scan(dest ...any) error
	Conf() float64
	Mode() sql.Mode
	Err() error
	Close() error
}

// drain reads every row of rs and closes it. With fp non-nil each row is
// folded into the fingerprint.
func drain(rs rowSource, fp *fingerprint) (rows int, err error) {
	defer func() {
		if cerr := rs.Close(); err == nil {
			err = cerr
		}
	}()
	hasConf := rs.Mode() != sql.ModePlain
	vals := make([]relation.Value, len(rs.Columns()))
	dests := make([]any, len(vals))
	for i := range vals {
		dests[i] = &vals[i]
	}
	for rs.Next() {
		if err := rs.Scan(dests...); err != nil {
			return rows, err
		}
		rows++
		if fp != nil {
			fp.add(vals, rs.Conf(), hasConf)
		}
	}
	return rows, rs.Err()
}

// verifyRows drains rs. With check set it also fingerprints the rows and
// compares them with want; what names the statement and the path that
// answered it in the error.
func verifyRows(rs rowSource, check bool, what string, want fingerprint) error {
	if !check {
		_, err := drain(rs, nil)
		return err
	}
	var fp fingerprint
	if _, err := drain(rs, &fp); err != nil {
		return err
	}
	if fp != want {
		return wrongf("%s answers %v, in-process reference %v", what, fp, want)
	}
	return nil
}
