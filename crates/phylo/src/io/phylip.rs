//! Relaxed sequential PHYLIP parsing and writing — the input format of
//! RAxML (the paper's `42_SC` file is a PHYLIP alignment of 42 sequences of
//! length 1167).
//!
//! Parsing is streaming: records are read line by line through one reusable
//! buffer and encoded straight into `DnaCode` rows, so peak memory is the
//! encoded alignment plus O(longest line) — not text + copies, which at
//! multi-hundred-MB inputs used to triple the resident footprint.

use crate::alignment::Alignment;
use crate::alphabet::{encode_base, DnaCode};
use crate::error::{PhyloError, Result};
use std::io::{BufRead, Write};

/// Parse a relaxed sequential PHYLIP file: a header line `n_taxa n_sites`,
/// then one record per taxon — a name token followed by sequence characters,
/// which may continue across lines until `n_sites` characters are read.
pub fn parse_phylip(text: &str) -> Result<Alignment> {
    parse_phylip_reader(text.as_bytes())
}

/// Streaming variant of [`parse_phylip`]: consumes any [`BufRead`] (an open
/// file, a decompressor, a socket) line by line without materializing the
/// whole input. I/O failures surface as [`PhyloError::Io`] with a
/// `"<phylip>"` placeholder path; wrap or remap at the call site when the
/// real path is known.
pub fn parse_phylip_reader<R: BufRead>(mut reader: R) -> Result<Alignment> {
    let mut buf = String::new();
    let mut lineno = 0usize;

    // Header: first non-blank line.
    let header = loop {
        buf.clear();
        if read_line(&mut reader, &mut buf)? == 0 {
            return Err(PhyloError::Parse {
                format: "PHYLIP",
                line: 0,
                message: "empty input".into(),
            });
        }
        lineno += 1;
        if !buf.trim().is_empty() {
            break buf.trim();
        }
    };
    let mut it = header.split_whitespace();
    let n_taxa: usize = it.next().and_then(|t| t.parse().ok()).ok_or(PhyloError::Parse {
        format: "PHYLIP",
        line: lineno,
        message: "header must start with the taxon count".into(),
    })?;
    let n_sites: usize = it.next().and_then(|t| t.parse().ok()).ok_or(PhyloError::Parse {
        format: "PHYLIP",
        line: lineno,
        message: "header must contain the site count".into(),
    })?;

    // The header is untrusted: nothing is sized from it. The vectors grow as
    // records arrive, and a row after the first is sized by the first, whose
    // length the input has already proven.
    let mut names: Vec<String> = Vec::new();
    let mut rows: Vec<Vec<DnaCode>> = Vec::new();
    // In-flight record: name plus the row encoded so far.
    let mut current: Option<(String, Vec<DnaCode>)> = None;
    loop {
        buf.clear();
        if read_line(&mut reader, &mut buf)? == 0 {
            break;
        }
        lineno += 1;
        let line = buf.trim();
        if line.is_empty() {
            continue;
        }
        let seq_part = match current.as_mut() {
            None => {
                // New record: first token is the name, the rest (if any)
                // starts the sequence.
                let mut parts = line.splitn(2, char::is_whitespace);
                let name = parts.next().unwrap_or("").to_string();
                let rest = parts.next().unwrap_or("");
                current = Some((name, Vec::with_capacity(rows.first().map_or(0, Vec::len))));
                rest
            }
            Some(_) => line,
        };
        let (name, row) = current.as_mut().expect("record in flight");
        for ch in seq_part.chars().filter(|c| !c.is_whitespace()) {
            if row.len() >= n_sites {
                return Err(PhyloError::Parse {
                    format: "PHYLIP",
                    line: lineno,
                    message: format!("sequence longer than the declared {n_sites} sites"),
                });
            }
            let code = encode_base(ch).ok_or_else(|| PhyloError::InvalidCharacter {
                taxon: name.clone(),
                position: row.len(),
                ch,
            })?;
            row.push(code);
        }
        if row.len() == n_sites {
            let (name, row) = current.take().unwrap();
            names.push(name);
            rows.push(row);
        }
        if names.len() == n_taxa {
            break;
        }
    }
    if let Some((name, row)) = current {
        return Err(PhyloError::Parse {
            format: "PHYLIP",
            line: lineno,
            message: format!(
                "taxon {name:?} has only {} of the declared {n_sites} sites",
                row.len()
            ),
        });
    }
    if names.len() != n_taxa {
        return Err(PhyloError::Parse {
            format: "PHYLIP",
            line: lineno,
            message: format!("found {} of the declared {n_taxa} taxa", names.len()),
        });
    }
    Alignment::from_encoded(names, rows)
}

fn read_line<R: BufRead>(reader: &mut R, buf: &mut String) -> Result<usize> {
    reader
        .read_line(buf)
        .map_err(|e| PhyloError::Io { path: "<phylip>".into(), message: e.to_string() })
}

/// Write an alignment in relaxed sequential PHYLIP format.
pub fn write_phylip(aln: &Alignment) -> String {
    let mut out = Vec::new();
    write_phylip_to(aln, &mut out).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("PHYLIP output is ASCII")
}

/// Stream an alignment in relaxed sequential PHYLIP format to any writer,
/// one record at a time — O(row) transient memory instead of building the
/// whole file as a `String`.
pub fn write_phylip_to<W: Write>(aln: &Alignment, out: &mut W) -> std::io::Result<()> {
    let width = aln.taxon_names().iter().map(|n| n.len()).max().unwrap_or(0) + 2;
    writeln!(out, "{} {}", aln.n_taxa(), aln.n_sites())?;
    let mut row = String::new();
    for (i, name) in aln.taxon_names().iter().enumerate() {
        row.clear();
        row.push_str(name);
        for _ in name.len()..width {
            row.push(' ');
        }
        row.push_str(&aln.sequence_string(i));
        row.push('\n');
        out.write_all(row.as_bytes())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_basic() {
        let aln = parse_phylip("2 4\nalpha ACGT\nbeta  ACGA\n").unwrap();
        assert_eq!(aln.n_taxa(), 2);
        assert_eq!(aln.n_sites(), 4);
        assert_eq!(aln.taxon_names(), &["alpha", "beta"]);
    }

    #[test]
    fn multiline_records() {
        let aln = parse_phylip("2 8\nalpha ACGT\nACGT\nbeta ACGAACGA\n").unwrap();
        assert_eq!(aln.sequence_string(0), "ACGTACGT");
        assert_eq!(aln.sequence_string(1), "ACGAACGA");
    }

    #[test]
    fn round_trip() {
        let w = crate::simulate::SimulationConfig::new(7, 90, 11).generate();
        let text = write_phylip(&w.raw);
        let back = parse_phylip(&text).unwrap();
        assert_eq!(back, w.raw);
    }

    #[test]
    fn header_errors() {
        assert!(parse_phylip("").is_err());
        assert!(parse_phylip("x y\n").is_err());
        assert!(parse_phylip("2\n").is_err());
    }

    #[test]
    fn truncated_inputs_rejected() {
        // Missing taxa.
        assert!(parse_phylip("3 4\na ACGT\nb ACGT\n").is_err());
        // Short sequence.
        assert!(parse_phylip("2 4\na ACG\n").is_err());
        // Long sequence.
        assert!(parse_phylip("2 4\na ACGTT\nb ACGT\n").is_err());
    }

    #[test]
    fn invalid_characters_carry_taxon_and_position() {
        let err = parse_phylip("1 4\nalpha AC!T\n").unwrap_err();
        assert_eq!(
            err,
            PhyloError::InvalidCharacter { taxon: "alpha".into(), position: 2, ch: '!' }
        );
    }

    #[test]
    fn reader_parse_matches_string_parse() {
        let w = crate::simulate::SimulationConfig::new(9, 140, 23).generate();
        let text = write_phylip(&w.raw);
        let via_str = parse_phylip(&text).unwrap();
        let via_reader =
            parse_phylip_reader(std::io::BufReader::with_capacity(17, text.as_bytes())).unwrap();
        assert_eq!(via_str, via_reader);
        assert_eq!(via_reader, w.raw);
    }

    #[test]
    fn streaming_writer_matches_string_writer() {
        let w = crate::simulate::SimulationConfig::new(5, 60, 3).generate();
        let mut streamed = Vec::new();
        write_phylip_to(&w.raw, &mut streamed).unwrap();
        assert_eq!(String::from_utf8(streamed).unwrap(), write_phylip(&w.raw));
    }
}
