package darshan

import (
	"bufio"
	"fmt"
	"io"
	"path"
	"strconv"
	"strings"
)

// Text codec: reads the output of the real `darshan-parser` utility, the
// lingua franca for Darshan log interchange (the binary libdarshan format
// itself is not reimplemented — any real log can be converted with
// `darshan-parser trace.darshan > trace.txt`). Only the counters MOSAIC
// consumes are interpreted; everything else is skipped.
//
// The format, abridged:
//
//	# darshan log version: 3.41
//	# exe: /apps/bin/lammps -in run.in
//	# uid: 1001
//	# jobid: 4478541
//	# start_time: 1546300800
//	# end_time: 1546304400
//	# nprocs: 512
//	# run time: 3600.1
//	...
//	#<module>  <rank>  <record id>  <counter>  <value>  <file name>  <mount pt>  <fs type>
//	POSIX   -1  9223372036854  POSIX_OPENS  512  /scratch/in.dat  /scratch  lustre
//	POSIX   -1  9223372036854  POSIX_F_OPEN_START_TIMESTAMP  1.02  /scratch/in.dat  /scratch  lustre
//
// Counter rows aggregate per (module, rank, record id).

// counterSetter maps a darshan-parser counter name onto the Counters
// model, nil for a counter MOSAIC does not consume. Integer and float
// counters share it; values arrive as float64 and are truncated for
// integer counters. MPI-IO and STDIO counters map onto the same model as
// POSIX ones. It is a switch rather than a map so the package builds
// nothing at init.
func counterSetter(name string) func(*Counters, float64) {
	switch name {
	case "POSIX_OPENS", "MPIIO_INDEP_OPENS", "MPIIO_COLL_OPENS", "STDIO_OPENS":
		return func(c *Counters, v float64) { c.Opens += int64(v) }
	case "POSIX_SEEKS", "STDIO_SEEKS":
		return func(c *Counters, v float64) { c.Seeks += int64(v) }
	case "POSIX_STATS":
		return func(c *Counters, v float64) { c.Stats += int64(v) }
	case "POSIX_READS", "MPIIO_INDEP_READS", "MPIIO_COLL_READS", "STDIO_READS":
		return func(c *Counters, v float64) { c.Reads += int64(v) }
	case "POSIX_WRITES", "MPIIO_INDEP_WRITES", "MPIIO_COLL_WRITES", "STDIO_WRITES":
		return func(c *Counters, v float64) { c.Writes += int64(v) }
	// darshan-parser has no explicit close counter; POSIX_FILENOS and
	// friends are ignored and closes are assumed to mirror opens when the
	// close timestamps are present.
	case "POSIX_BYTES_READ", "MPIIO_BYTES_READ", "STDIO_BYTES_READ":
		return func(c *Counters, v float64) { c.BytesRead += int64(v) }
	case "POSIX_BYTES_WRITTEN", "MPIIO_BYTES_WRITTEN", "STDIO_BYTES_WRITTEN":
		return func(c *Counters, v float64) { c.BytesWritten += int64(v) }

	case "POSIX_F_OPEN_START_TIMESTAMP", "MPIIO_F_OPEN_START_TIMESTAMP", "STDIO_F_OPEN_START_TIMESTAMP":
		return func(c *Counters, v float64) { c.OpenStart = v }
	case "POSIX_F_OPEN_END_TIMESTAMP", "MPIIO_F_OPEN_END_TIMESTAMP", "STDIO_F_OPEN_END_TIMESTAMP":
		return func(c *Counters, v float64) { c.OpenEnd = v }
	case "POSIX_F_READ_START_TIMESTAMP", "MPIIO_F_READ_START_TIMESTAMP", "STDIO_F_READ_START_TIMESTAMP":
		return func(c *Counters, v float64) { c.ReadStart = v }
	case "POSIX_F_READ_END_TIMESTAMP", "MPIIO_F_READ_END_TIMESTAMP", "STDIO_F_READ_END_TIMESTAMP":
		return func(c *Counters, v float64) { c.ReadEnd = v }
	case "POSIX_F_WRITE_START_TIMESTAMP", "MPIIO_F_WRITE_START_TIMESTAMP", "STDIO_F_WRITE_START_TIMESTAMP":
		return func(c *Counters, v float64) { c.WriteStart = v }
	case "POSIX_F_WRITE_END_TIMESTAMP", "MPIIO_F_WRITE_END_TIMESTAMP", "STDIO_F_WRITE_END_TIMESTAMP":
		return func(c *Counters, v float64) { c.WriteEnd = v }
	case "POSIX_F_CLOSE_START_TIMESTAMP", "MPIIO_F_CLOSE_START_TIMESTAMP", "STDIO_F_CLOSE_START_TIMESTAMP":
		return func(c *Counters, v float64) { c.CloseStart = v }
	case "POSIX_F_CLOSE_END_TIMESTAMP", "MPIIO_F_CLOSE_END_TIMESTAMP", "STDIO_F_CLOSE_END_TIMESTAMP":
		return func(c *Counters, v float64) { c.CloseEnd = v }
	}
	return nil
}

func moduleFromParserName(s string) (Module, bool) {
	switch s {
	case "POSIX":
		return ModPOSIX, true
	case "MPI-IO", "MPIIO":
		return ModMPIIO, true
	case "STDIO":
		return ModSTDIO, true
	default:
		return 0, false
	}
}

// ReadParserText parses darshan-parser output into a Job. Unknown modules
// and counters are skipped silently (darshan-parser emits dozens of
// counters per record; MOSAIC needs a dozen). Header fields may appear in
// any order; a missing run time falls back to end_time - start_time.
func ReadParserText(r io.Reader) (*Job, error) {
	j := &Job{}
	type recKey struct {
		mod  Module
		rank int32
		id   string
	}
	records := make(map[recKey]*FileRecord)
	var order []recKey

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := parseHeaderLine(j, line); err != nil {
				return nil, fmt.Errorf("darshan: text line %d: %w", lineNo, err)
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 5 {
			return nil, fmt.Errorf("darshan: text line %d: short counter row %q", lineNo, line)
		}
		mod, ok := moduleFromParserName(fields[0])
		if !ok {
			continue // module MOSAIC does not consume (LUSTRE, DXT, ...)
		}
		setter := counterSetter(fields[3])
		if setter == nil {
			continue
		}
		rank64, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("darshan: text line %d: rank %q: %v", lineNo, fields[1], err)
		}
		value, err := strconv.ParseFloat(fields[4], 64)
		if err != nil {
			return nil, fmt.Errorf("darshan: text line %d: value %q: %v", lineNo, fields[4], err)
		}
		key := recKey{mod: mod, rank: int32(rank64), id: fields[2]}
		rec, ok := records[key]
		if !ok {
			filePath := ""
			if len(fields) >= 6 {
				filePath = fields[5]
			}
			rec = &FileRecord{Module: mod, Rank: int32(rank64), Path: filePath}
			records[key] = rec
			order = append(order, key)
		}
		setter(&rec.C, value)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("darshan: reading text log: %w", err)
	}

	if j.Runtime == 0 && j.End > j.Start {
		j.Runtime = float64(j.End - j.Start)
	}
	for _, key := range order {
		rec := records[key]
		// darshan-parser does not expose closes; when the record was
		// opened and carries close timestamps, mirror the open count.
		if rec.C.Opens > 0 && rec.C.Closes == 0 && rec.C.CloseEnd > 0 {
			rec.C.Closes = rec.C.Opens
		}
		j.Records = append(j.Records, *rec)
	}
	return j, nil
}

func parseHeaderLine(j *Job, line string) error {
	body := strings.TrimSpace(strings.TrimPrefix(line, "#"))
	colon := strings.IndexByte(body, ':')
	if colon < 0 {
		return nil // separator or column-description comment
	}
	key := strings.TrimSpace(body[:colon])
	val := strings.TrimSpace(body[colon+1:])
	switch key {
	case "exe":
		j.Exe = val
	case "uid":
		v, err := strconv.ParseUint(val, 10, 32)
		if err != nil {
			return fmt.Errorf("uid %q: %v", val, err)
		}
		j.UID = uint32(v)
		if j.User == "" {
			j.User = "uid" + val
		}
	case "jobid":
		v, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			return fmt.Errorf("jobid %q: %v", val, err)
		}
		j.JobID = v
	case "start_time":
		v, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return fmt.Errorf("start_time %q: %v", val, err)
		}
		j.Start = v
	case "end_time":
		v, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return fmt.Errorf("end_time %q: %v", val, err)
		}
		j.End = v
	case "nprocs":
		v, err := strconv.ParseInt(val, 10, 32)
		if err != nil {
			return fmt.Errorf("nprocs %q: %v", val, err)
		}
		j.NProcs = int32(v)
	case "run time":
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return fmt.Errorf("run time %q: %v", val, err)
		}
		j.Runtime = v
	}
	return nil
}

// WriteParserText emits the job in darshan-parser-compatible text, the
// inverse of ReadParserText for the counters MOSAIC models. Useful for
// feeding synthetic corpora to external Darshan analysis tools.
func WriteParserText(w io.Writer, j *Job) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# darshan log version: 3.41\n")
	fmt.Fprintf(bw, "# exe: %s\n", j.Exe)
	fmt.Fprintf(bw, "# uid: %d\n", j.UID)
	fmt.Fprintf(bw, "# jobid: %d\n", j.JobID)
	fmt.Fprintf(bw, "# start_time: %d\n", j.Start)
	fmt.Fprintf(bw, "# end_time: %d\n", j.End)
	fmt.Fprintf(bw, "# nprocs: %d\n", j.NProcs)
	fmt.Fprintf(bw, "# run time: %g\n", j.Runtime)
	fmt.Fprintf(bw, "#<module>\t<rank>\t<record id>\t<counter>\t<value>\t<file name>\t<mount pt>\t<fs type>\n")

	for i := range j.Records {
		rec := &j.Records[i]
		mod := parserModuleName(rec.Module)
		prefix := parserCounterPrefix(rec.Module)
		id := recordID(rec.Path, i)
		row := func(counter string, value string) {
			fmt.Fprintf(bw, "%s\t%d\t%s\t%s\t%s\t%s\t/scratch\tlustre\n", mod, rec.Rank, id, counter, value, rec.Path)
		}
		iRow := func(counter string, v int64) { row(counter, strconv.FormatInt(v, 10)) }
		fRow := func(counter string, v float64) {
			row(counter, strconv.FormatFloat(v, 'g', -1, 64))
		}
		c := &rec.C
		iRow(prefix+"_OPENS", c.Opens)
		if rec.Module != ModMPIIO {
			iRow(prefix+"_SEEKS", c.Seeks)
		}
		if rec.Module == ModPOSIX {
			iRow(prefix+"_STATS", c.Stats)
		}
		iRow(prefix+"_READS", c.Reads)
		iRow(prefix+"_WRITES", c.Writes)
		iRow(prefix+"_BYTES_READ", c.BytesRead)
		iRow(prefix+"_BYTES_WRITTEN", c.BytesWritten)
		fRow(prefix+"_F_OPEN_START_TIMESTAMP", c.OpenStart)
		fRow(prefix+"_F_OPEN_END_TIMESTAMP", c.OpenEnd)
		fRow(prefix+"_F_READ_START_TIMESTAMP", c.ReadStart)
		fRow(prefix+"_F_READ_END_TIMESTAMP", c.ReadEnd)
		fRow(prefix+"_F_WRITE_START_TIMESTAMP", c.WriteStart)
		fRow(prefix+"_F_WRITE_END_TIMESTAMP", c.WriteEnd)
		fRow(prefix+"_F_CLOSE_START_TIMESTAMP", c.CloseStart)
		fRow(prefix+"_F_CLOSE_END_TIMESTAMP", c.CloseEnd)
	}
	return bw.Flush()
}

func parserModuleName(m Module) string {
	switch m {
	case ModMPIIO:
		return "MPI-IO"
	case ModSTDIO:
		return "STDIO"
	default:
		return "POSIX"
	}
}

func parserCounterPrefix(m Module) string {
	switch m {
	case ModMPIIO:
		return "MPIIO"
	case ModSTDIO:
		return "STDIO"
	default:
		return "POSIX"
	}
}

// recordID derives a stable per-record identifier the way darshan hashes
// file paths; a running index disambiguates duplicate paths.
func recordID(p string, idx int) string {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(p); i++ {
		h = (h ^ uint64(p[i])) * 1099511628211
	}
	return strconv.FormatUint(h^uint64(idx), 10)
}

// guard against accidental unused import when the counter table changes.
var _ = path.Base
