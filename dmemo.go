// Package repro is D-Memo: a reproduction of "Distributed Memo: A
// Heterogeneously Distributed and Parallel Software Development
// Environment" (O'Connell, Thiruvathukal, Christopher; ICPP 1994).
//
// D-Memo presents a network of heterogeneous machines as one shared
// directory of unordered queues: messages are memos, queues are folders,
// and any process on any host can deposit, examine, or extract memos from
// any folder. This package is the public facade; it re-exports the pieces a
// downstream application needs:
//
//   - Cluster / Boot: a simulated heterogeneous network built from an
//     Application Description File (ADF, paper §4.3).
//   - Memo: the application API (§6) — Put, PutDelayed, Get, GetCopy,
//     GetSkip, GetAlt, GetAltSkip, CreateSymbol.
//   - The collect subpackage's coordination structures (job jars, futures,
//     I-structures, locks, semaphores, barriers) accept Memo handles.
//
// Quickstart:
//
//	c, err := repro.BootADF(adfText, repro.Options{})
//	defer c.Shutdown()
//	m, err := c.NewMemo("hostname")
//	m.Put(m.NamedKey("greetings"), transferable.String("hi"))
//
// See examples/ for complete programs and DESIGN.md for the system
// inventory and experiment index.
package repro

import (
	"repro/internal/adf"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/symbol"
	"repro/internal/transferable"
)

// Re-exported core types. Aliases keep one set of method sets and let the
// examples and external callers share vocabulary with the internals.
type (
	// Memo is the application API handle (paper §6).
	Memo = core.Memo
	// Cluster is a booted simulated network.
	Cluster = cluster.Cluster
	// Options tune a cluster boot.
	Options = cluster.Options
	// ADF is a parsed Application Description File.
	ADF = adf.File
	// Key names a folder: a symbol plus a vector of unsigned integers.
	Key = symbol.Key
	// Symbol is a folder-name symbol: a name's hash or a fresh random one.
	Symbol = symbol.Symbol
	// Value is a transferable datum (§3.1.3).
	Value = transferable.Value
)

// ParseADF parses an Application Description File (§4.3).
func ParseADF(src string) (*ADF, error) { return adf.Parse(src) }

// ValidateADF checks cross-section consistency.
func ValidateADF(f *ADF) error { return adf.Validate(f) }

// Boot starts a simulated cluster from a parsed ADF: one memo server per
// host, folder servers placed per the FOLDERS section, link latencies from
// the PPC costs, and the application registered everywhere (§4.4).
func Boot(f *ADF, opts Options) (*Cluster, error) { return cluster.Boot(f, opts) }

// BootADF parses and boots in one step.
func BootADF(src string, opts Options) (*Cluster, error) { return cluster.BootADF(src, opts) }
