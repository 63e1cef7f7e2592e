// Package faultfs is the storage-side sibling of netsim.Gate: a small
// injectable filesystem abstraction that every durable artifact in the
// repo — the dist write-ahead journal, the checkpoint spool, the
// control plane's read of an older queue.log — performs its I/O
// through, plus a fault-injecting implementation that delivers
// deterministic EIO / ENOSPC errors, torn (partial) writes, sync
// failures and rename failures per operation.
//
// The paper's grid argument assumes campaigns survive the messy real
// world. PRs 3-4 proved the network half (SIGKILL replay, partitions,
// breakers); faultfs makes the disk half provable too: chaos tests
// count the mutating operations of a protocol (journal compaction, the
// tmp+rename+dir-fsync dance) and then re-run it with a fault injected
// at every single step boundary, asserting that replayed state is
// identical no matter where the disk gave out.
//
// The interface is deliberately tiny — exactly the operations the
// journals need, nothing more — so the OS implementation is a
// transparent passthrough and the injector's operation count maps 1:1
// onto durability-relevant syscalls.
package faultfs

import (
	"io"
	"io/fs"
	"os"
)

// File is the writable handle the journals use. Reads go through
// FS.ReadFile instead (the journals always scan whole files), which
// keeps the fault surface focused on the mutating path.
type File interface {
	io.Writer
	// Sync flushes the file's data to stable storage (fsync).
	Sync() error
	// Truncate cuts the file to size — the torn-tail repair operation.
	Truncate(size int64) error
	Close() error
}

// FS is the filesystem the durable layers are written against. Every
// method mirrors the os package function of the same name; SyncDir is
// the one addition — fsync on a directory, the step that makes a
// rename durable across power loss (rename alone only becomes
// persistent once the parent directory's entry table is flushed).
type FS interface {
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	Truncate(name string, size int64) error
	MkdirAll(path string, perm fs.FileMode) error
	ReadFile(name string) ([]byte, error)
	ReadDir(name string) ([]fs.DirEntry, error)
	// SyncDir fsyncs the directory at name, making previously renamed
	// or created entries durable.
	SyncDir(name string) error
}

// OS is the passthrough implementation backed by the real os package.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error             { return os.Remove(name) }
func (osFS) Truncate(name string, size int64) error {
	return os.Truncate(name, size)
}
func (osFS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (osFS) ReadDir(name string) ([]fs.DirEntry, error)   { return os.ReadDir(name) }

func (osFS) SyncDir(name string) error {
	d, err := os.Open(name)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Or returns fsys unless it is nil, in which case the real OS
// filesystem is returned — the "nil means no injection" convention
// every config surface uses.
func Or(fsys FS) FS {
	if fsys == nil {
		return OS
	}
	return fsys
}
