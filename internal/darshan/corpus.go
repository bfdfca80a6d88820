package darshan

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Corpus utilities: reading and writing directories of trace files, the
// on-disk shape of the Blue Waters dataset (one Darshan log per job).

// Extensions recognized by the corpus scanner.
const (
	ExtBinary = ".mosd"
	ExtJSON   = ".json"
	ExtText   = ".txt" // darshan-parser output
)

// ReadFile loads a single trace, dispatching on the file extension.
func ReadFile(path string) (*Job, error) {
	j := new(Job)
	if _, err := readFile(j, path, false); err != nil {
		return nil, err
	}
	return j, nil
}

// ReadFileInto loads a single trace into j, dispatching on the file
// extension, and returns its Summary. A .mosd file is decoded as
// DecodeInto decodes it — into j's own storage, its Metadata map
// included, and with the summary taken in the decoder's record walk,
// where a prelude is also checked against it — so a caller that reads
// many files through one Job allocates little beyond the record paths.
// The text formats are parsed into a new job that replaces *j. On error
// j's contents are unspecified.
func ReadFileInto(j *Job, path string) (Summary, error) { return readFile(j, path, true) }

// readFile is ReadFileInto that takes the Summary only with summarize or
// where a prelude must be checked against it: ReadFile has no use for it.
func readFile(j *Job, path string, summarize bool) (Summary, error) {
	f, err := os.Open(path)
	if err != nil {
		return Summary{}, err
	}
	defer f.Close()
	var parsed *Job
	switch strings.ToLower(filepath.Ext(path)) {
	case ExtJSON:
		parsed, err = ReadJSON(f)
	case ExtText:
		parsed, err = ReadParserText(f)
	default:
		return readBinaryFile(j, f, summarize)
	}
	if err != nil {
		return Summary{}, err
	}
	*j = *parsed
	if !summarize {
		return Summary{}, nil
	}
	return Summarize(j), nil
}

// WriteFile stores a trace, dispatching on the file extension.
func WriteFile(path string, j *Job) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var werr error
	switch strings.ToLower(filepath.Ext(path)) {
	case ExtJSON:
		werr = WriteJSON(f, j)
	case ExtText:
		werr = WriteParserText(f, j)
	default:
		werr = WriteBinary(f, j)
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// isTempName reports whether a file name looks like a temporary or
// partial artifact that should never be read as a trace: dotfiles
// (including editor state like .#foo and rsync/atomic-rename spools
// like ..mosd.tmp123), explicit *.tmp / *.partial markers, and
// editor backups ending in '~'. Skipping them lets a store or
// generator writer share a directory with a live corpus scanner
// without the scanner racing on half-written files.
func isTempName(name string) bool {
	return strings.HasPrefix(name, ".") ||
		strings.HasSuffix(name, "~") ||
		strings.HasSuffix(strings.ToLower(name), ".tmp") ||
		strings.HasSuffix(strings.ToLower(name), ".partial")
}

// isTraceName reports whether a file name should be picked up by the
// corpus scanner: a recognized trace extension and not a temp/partial
// artifact.
func isTraceName(name string) bool {
	if isTempName(name) {
		return false
	}
	switch strings.ToLower(filepath.Ext(name)) {
	case ExtBinary, ExtJSON, ExtText:
		return true
	}
	return false
}

// ListCorpus returns the sorted paths of all trace files under dir
// (recursively). Files with unknown extensions and temp/partial
// artifacts (dotfiles, *.tmp, *.partial, backups ending in '~') are
// ignored; hidden directories are skipped entirely.
func ListCorpus(dir string) ([]string, error) {
	var paths []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != dir && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if isTraceName(d.Name()) {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("darshan: scanning corpus %s: %w", dir, err)
	}
	sort.Strings(paths)
	return paths, nil
}

// ScanCorpus streams the trace paths under dir in deterministic lexical
// walk order, calling fn for each. It stops early — returning ctx.Err()
// — when ctx is cancelled or fn returns false. Unlike ListCorpus it
// never materializes the full path list, so the first trace can flow
// into a pipeline before the walk finishes: this is the Scan stage of
// the engine.
func ScanCorpus(ctx context.Context, dir string, fn func(path string) bool) error {
	errStop := fmt.Errorf("darshan: scan stopped")
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		if d.IsDir() {
			if path != dir && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if isTraceName(d.Name()) {
			if !fn(path) {
				return errStop
			}
		}
		return nil
	})
	switch {
	case err == nil:
		return nil
	case err == errStop: //nolint:errorlint // sentinel, never wrapped
		return ctx.Err()
	case ctx.Err() != nil:
		return ctx.Err()
	default:
		return fmt.Errorf("darshan: scanning corpus %s: %w", dir, err)
	}
}

// WriteCorpus stores jobs into dir using the binary format and a
// Blue-Waters-like naming scheme: <user>_<app>_id<jobid>.mosd.
func WriteCorpus(dir string, jobs []*Job) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, j := range jobs {
		name := fmt.Sprintf("%s_%s_id%d%s", sanitize(j.User), sanitize(j.AppName()), j.JobID, ExtBinary)
		if err := WriteFile(filepath.Join(dir, name), j); err != nil {
			return fmt.Errorf("darshan: writing %s: %w", name, err)
		}
	}
	return nil
}

func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-' || r == '.':
			return r
		default:
			return '_'
		}
	}, s)
}
