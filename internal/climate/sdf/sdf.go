// Package sdf implements the "self-describing format" the post-processing
// conversion task (convert_output_format) standardizes diagnostic files into
// (paper §2): a compact binary container where every record carries its own
// name, units, grid shape and timestamp — a miniature NetCDF built on the
// standard library only.
//
// Layout (little endian):
//
//	magic   "SDF1"
//	count   uint32                      number of records
//	record: nameLen uint16, name bytes
//	        unitLen uint16, unit bytes
//	        nlat uint32, nlon uint32
//	        time int64                  (month index or epoch, writer-defined)
//	        data nlat*nlon float64
package sdf

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"oagrid/internal/climate/field"
)

// Magic identifies an SDF stream.
const Magic = "SDF1"

// maxDim guards against corrupt headers allocating absurd buffers.
const maxDim = 1 << 16

// Record is one self-described field with its timestamp.
type Record struct {
	Time  int64
	Field *field.Field
}

// Write serializes the records to w.
func Write(w io.Writer, records []Record) error {
	if _, err := w.Write([]byte(Magic)); err != nil {
		return fmt.Errorf("sdf: writing magic: %w", err)
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(records))); err != nil {
		return fmt.Errorf("sdf: writing count: %w", err)
	}
	for i, r := range records {
		if r.Field == nil {
			return fmt.Errorf("sdf: record %d has no field", i)
		}
		if err := writeString(w, r.Field.Name); err != nil {
			return err
		}
		if err := writeString(w, r.Field.Unit); err != nil {
			return err
		}
		hdr := []interface{}{
			uint32(r.Field.Grid.NLat),
			uint32(r.Field.Grid.NLon),
			r.Time,
		}
		for _, h := range hdr {
			if err := binary.Write(w, binary.LittleEndian, h); err != nil {
				return fmt.Errorf("sdf: record %d header: %w", i, err)
			}
		}
		if want, got := r.Field.Grid.Cells(), len(r.Field.Data); want != got {
			return fmt.Errorf("sdf: record %d (%s): %d cells declared, %d present", i, r.Field.Name, want, got)
		}
		if err := binary.Write(w, binary.LittleEndian, r.Field.Data); err != nil {
			return fmt.Errorf("sdf: record %d data: %w", i, err)
		}
	}
	return nil
}

func writeString(w io.Writer, s string) error {
	if len(s) > math.MaxUint16 {
		return fmt.Errorf("sdf: string of %d bytes too long", len(s))
	}
	if err := binary.Write(w, binary.LittleEndian, uint16(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

func readString(r io.Reader) (string, error) {
	var n uint16
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", err
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// Read parses an SDF stream.
func Read(r io.Reader) ([]Record, error) {
	magic := make([]byte, len(Magic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("sdf: reading magic: %w", err)
	}
	if string(magic) != Magic {
		return nil, fmt.Errorf("sdf: bad magic %q", magic)
	}
	var count uint32
	if err := binary.Read(r, binary.LittleEndian, &count); err != nil {
		return nil, fmt.Errorf("sdf: reading count: %w", err)
	}
	records := make([]Record, 0, count)
	for i := uint32(0); i < count; i++ {
		name, err := readString(r)
		if err != nil {
			return nil, fmt.Errorf("sdf: record %d name: %w", i, err)
		}
		unit, err := readString(r)
		if err != nil {
			return nil, fmt.Errorf("sdf: record %d unit: %w", i, err)
		}
		var nlat, nlon uint32
		var ts int64
		if err := binary.Read(r, binary.LittleEndian, &nlat); err != nil {
			return nil, fmt.Errorf("sdf: record %d: %w", i, err)
		}
		if err := binary.Read(r, binary.LittleEndian, &nlon); err != nil {
			return nil, fmt.Errorf("sdf: record %d: %w", i, err)
		}
		if err := binary.Read(r, binary.LittleEndian, &ts); err != nil {
			return nil, fmt.Errorf("sdf: record %d: %w", i, err)
		}
		if nlat == 0 || nlon == 0 || nlat > maxDim || nlon > maxDim {
			return nil, fmt.Errorf("sdf: record %d (%s): implausible grid %dx%d", i, name, nlat, nlon)
		}
		f, err := field.New(field.Grid{NLat: int(nlat), NLon: int(nlon)}, name, unit)
		if err != nil {
			return nil, fmt.Errorf("sdf: record %d: %w", i, err)
		}
		if err := binary.Read(r, binary.LittleEndian, f.Data); err != nil {
			return nil, fmt.Errorf("sdf: record %d data: %w", i, err)
		}
		records = append(records, Record{Time: ts, Field: f})
	}
	return records, nil
}

// Find returns the first record whose field has the given name.
func Find(records []Record, name string) (Record, error) {
	for _, r := range records {
		if r.Field.Name == name {
			return r, nil
		}
	}
	return Record{}, fmt.Errorf("sdf: no record named %q", name)
}
