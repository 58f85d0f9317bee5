//! Binary line-chart rasterization and pixel-error measurement.
//!
//! M4's claim (Jugel et al., VLDB'14; restated by the reproduced paper)
//! is that rendering only the ≤ 4 representation points per pixel
//! column produces the *same two-color line chart* as rendering every
//! data point, when the chart width equals the number of spans `w`.
//! This module provides the canvas, Bresenham line drawing, series
//! rendering, and pixel diffing used to verify that claim end-to-end
//! (the `pixels` experiment), plus a MinMax representation to show a
//! non-error-free baseline.

use tsfile::types::Point;

use crate::query::M4Query;
use crate::repr::M4Result;
use crate::{M4Error, Result};

/// A two-color (binary) pixel canvas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Canvas {
    width: usize,
    height: usize,
    bits: Vec<bool>,
}

impl Canvas {
    /// Create an all-background canvas.
    pub fn new(width: usize, height: usize) -> Result<Self> {
        if width == 0 || height == 0 {
            return Err(M4Error::EmptyCanvas);
        }
        Ok(Canvas {
            width,
            height,
            bits: vec![false; width * height],
        })
    }

    pub fn width(&self) -> usize {
        self.width
    }

    pub fn height(&self) -> usize {
        self.height
    }

    /// Whether pixel `(x, y)` is set (y = 0 is the bottom row).
    pub fn get(&self, x: usize, y: usize) -> bool {
        self.bits[y * self.width + x]
    }

    fn set(&mut self, x: i64, y: i64) {
        if x >= 0 && y >= 0 && (x as usize) < self.width && (y as usize) < self.height {
            self.bits[y as usize * self.width + x as usize] = true;
        }
    }

    /// Draw a line segment with Bresenham's algorithm (all integer).
    pub fn draw_line(&mut self, x0: i64, y0: i64, x1: i64, y1: i64) {
        let dx = (x1 - x0).abs();
        let dy = -(y1 - y0).abs();
        let sx = if x0 < x1 { 1 } else { -1 };
        let sy = if y0 < y1 { 1 } else { -1 };
        let mut err = dx + dy;
        let (mut x, mut y) = (x0, y0);
        loop {
            self.set(x, y);
            if x == x1 && y == y1 {
                break;
            }
            let e2 = 2 * err;
            if e2 >= dy {
                err += dy;
                x += sx;
            }
            if e2 <= dx {
                err += dx;
                y += sy;
            }
        }
    }

    /// Number of set pixels.
    pub fn set_pixels(&self) -> usize {
        self.bits.iter().filter(|&&b| b).count()
    }

    /// Number of differing pixels between two same-sized canvases.
    pub fn diff_pixels(&self, other: &Canvas) -> usize {
        assert_eq!(self.width, other.width, "canvas width mismatch");
        assert_eq!(self.height, other.height, "canvas height mismatch");
        self.bits
            .iter()
            .zip(&other.bits)
            .filter(|(a, b)| a != b)
            .count()
    }

    /// Serialize as a binary PBM (P4) image — the two-color chart as an
    /// actual image, viewable in any image tool — into `out`.
    pub fn write_pbm(&self, out: impl std::io::Write) -> Result<()> {
        use std::io::Write;
        let mut f = std::io::BufWriter::new(out);
        let header = format!("P4\n{} {}\n", self.width, self.height);
        f.write_all(header.as_bytes())
            .map_err(|e| M4Error::Storage(e.into()))?;
        // P4 packs 8 pixels per byte, rows top-to-bottom, MSB first.
        let row_bytes = self.width.div_ceil(8);
        let mut row = vec![0u8; row_bytes];
        for y in (0..self.height).rev() {
            row.iter_mut().for_each(|b| *b = 0);
            for x in 0..self.width {
                if self.get(x, y) {
                    row[x / 8] |= 0x80 >> (x % 8);
                }
            }
            f.write_all(&row).map_err(|e| M4Error::Storage(e.into()))?;
        }
        f.flush().map_err(|e| M4Error::Storage(e.into()))?;
        Ok(())
    }

    /// Render as ASCII art (top row first), for examples and debugging.
    pub fn to_ascii(&self) -> String {
        let mut s = String::with_capacity((self.width + 1) * self.height);
        for y in (0..self.height).rev() {
            for x in 0..self.width {
                s.push(if self.get(x, y) { '█' } else { ' ' });
            }
            s.push('\n');
        }
        s
    }
}

/// Mapping from data coordinates to pixel coordinates.
#[derive(Debug, Clone, Copy)]
pub struct PixelMap {
    t_qs: i64,
    t_qe: i64,
    v_min: f64,
    v_max: f64,
    width: usize,
    height: usize,
}

impl PixelMap {
    /// Build a map from a query (x axis) and a value range (y axis).
    pub fn new(query: &M4Query, v_min: f64, v_max: f64, width: usize, height: usize) -> Self {
        PixelMap {
            t_qs: query.t_qs,
            t_qe: query.t_qe,
            v_min,
            v_max,
            width,
            height,
        }
    }

    /// Pixel column of timestamp `t` (clamped).
    pub fn x(&self, t: i64) -> i64 {
        let num = (i128::from(t) - i128::from(self.t_qs)) * self.width as i128;
        let den = i128::from(self.t_qe) - i128::from(self.t_qs);
        (num / den).clamp(0, self.width as i128 - 1) as i64
    }

    /// Pixel row of value `v` (clamped; row 0 at `v_min`).
    pub fn y(&self, v: f64) -> i64 {
        if self.v_max == self.v_min {
            return 0;
        }
        let frac = (v - self.v_min) / (self.v_max - self.v_min);
        let y = (frac * (self.height as f64 - 1.0)).round() as i64;
        y.clamp(0, self.height as i64 - 1)
    }
}

/// Render a time-sorted point sequence as a connected line chart.
pub fn render_series(points: &[Point], map: &PixelMap) -> Result<Canvas> {
    let mut canvas = Canvas::new(map.width, map.height)?;
    let mut prev: Option<(i64, i64)> = None;
    for p in points {
        let xy = (map.x(p.t), map.y(p.v));
        match prev {
            Some((px, py)) => canvas.draw_line(px, py, xy.0, xy.1),
            None => canvas.draw_line(xy.0, xy.1, xy.0, xy.1),
        }
        prev = Some(xy);
    }
    Ok(canvas)
}

/// Render an M4 result: the connected line over the ≤ 4w representation
/// points, width = number of spans (the M4 rendering contract).
pub fn render_m4(result: &M4Result, map: &PixelMap) -> Result<Canvas> {
    render_series(&result.points(), map)
}

/// The MinMax representation: per span, only the bottom and top points
/// (in time order). A classic data reduction that is *not* error-free
/// for line charts — used as the contrast case in the pixel experiment.
pub fn minmax_points(result: &M4Result) -> Vec<Point> {
    let mut out = Vec::new();
    for s in result.spans.iter().flatten() {
        let (a, b) = if s.bottom.t <= s.top.t {
            (s.bottom, s.top)
        } else {
            (s.top, s.bottom)
        };
        out.push(a);
        if a != b {
            out.push(b);
        }
    }
    out
}

/// Compute the min/max values over a point sequence (for axis scaling).
pub fn value_range(points: &[Point]) -> Option<(f64, f64)> {
    let first = points.first()?;
    let mut min = first.v;
    let mut max = first.v;
    for p in points {
        min = min.min(p.v);
        max = max.max(p.v);
    }
    Some((min, max))
}

#[cfg(test)]
mod tests {
    // Tests assert by panicking; the workspace deny-set targets library code.
    #![allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing
    )]

    use super::*;
    use crate::oracle::m4_scan;

    #[test]
    fn canvas_basics() {
        let mut c = Canvas::new(4, 3).unwrap();
        assert_eq!(c.set_pixels(), 0);
        c.draw_line(0, 0, 3, 2);
        assert!(c.get(0, 0));
        assert!(c.get(3, 2));
        assert!(c.set_pixels() >= 4);
        assert!(Canvas::new(0, 5).is_err());
    }

    #[test]
    fn diff_counts_mismatches() {
        let mut a = Canvas::new(3, 3).unwrap();
        let b = Canvas::new(3, 3).unwrap();
        assert_eq!(a.diff_pixels(&b), 0);
        a.draw_line(0, 0, 0, 0);
        assert_eq!(a.diff_pixels(&b), 1);
    }

    #[test]
    fn vertical_and_horizontal_lines() {
        let mut c = Canvas::new(5, 5).unwrap();
        c.draw_line(2, 0, 2, 4);
        assert_eq!(c.set_pixels(), 5);
        let mut c2 = Canvas::new(5, 5).unwrap();
        c2.draw_line(0, 3, 4, 3);
        assert_eq!(c2.set_pixels(), 5);
    }

    #[test]
    fn m4_render_is_pixel_exact_on_line_chart() {
        // Dense synthetic series: full render vs M4 render must agree
        // exactly when chart width == w.
        let points: Vec<Point> = (0..10_000)
            .map(|i| Point::new(i, ((i as f64) * 0.05).sin() * 100.0 + ((i % 83) as f64)))
            .collect();
        let w = 100;
        let q = M4Query::new(0, 10_000, w).unwrap();
        let m4 = m4_scan(&points, &q);
        let (vmin, vmax) = value_range(&points).unwrap();
        let map = PixelMap::new(&q, vmin, vmax, w, 50);
        let full = render_series(&points, &map).unwrap();
        let reduced = render_m4(&m4, &map).unwrap();
        assert_eq!(full.diff_pixels(&reduced), 0, "M4 must be pixel-error-free");
    }

    #[test]
    fn minmax_render_has_errors_on_this_series() {
        // A series whose first/last points matter for inter-column
        // connections: tall columns (a full sine period entering and
        // leaving at the midline) alternate with flat columns pinned at
        // the midline. MinMax draws the tall→flat connector from the
        // trough instead of the true midline last point, painting a
        // diagonal across pixels the exact chart leaves blank.
        let points: Vec<Point> = (0..1000)
            .map(|i| {
                let col = i / 20;
                let v = if col % 2 == 0 {
                    let phase = (i % 20) as f64 / 20.0 * std::f64::consts::TAU;
                    50.0 + 40.0 * phase.sin()
                } else {
                    50.0
                };
                Point::new(i, v)
            })
            .collect();
        let w = 50;
        let q = M4Query::new(0, 1000, w).unwrap();
        let m4 = m4_scan(&points, &q);
        let (vmin, vmax) = value_range(&points).unwrap();
        let map = PixelMap::new(&q, vmin, vmax, w, 40);
        let full = render_series(&points, &map).unwrap();
        let mm = render_series(&minmax_points(&m4), &map).unwrap();
        let m4r = render_m4(&m4, &map).unwrap();
        assert_eq!(full.diff_pixels(&m4r), 0);
        assert!(
            full.diff_pixels(&mm) > 0,
            "MinMax should not be error-free here"
        );
    }

    #[test]
    fn ascii_rendering_shape() {
        let mut c = Canvas::new(3, 2).unwrap();
        c.draw_line(0, 1, 2, 1);
        let art = c.to_ascii();
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], "███");
        assert_eq!(lines[1], "   ");
    }

    #[test]
    fn pbm_roundtrip_shape() {
        let mut c = Canvas::new(17, 5).unwrap(); // width not multiple of 8
        c.draw_line(0, 0, 16, 4);
        let mut bytes = Vec::new();
        c.write_pbm(&mut bytes).unwrap();
        assert!(bytes.starts_with(b"P4\n17 5\n"));
        // 3 bytes per row x 5 rows after the header.
        let header_len = b"P4\n17 5\n".len();
        assert_eq!(bytes.len() - header_len, 3 * 5);
        // Top row (y=4) has the endpoint pixel at x=16 set: byte 2, MSB bit 0.
        assert_eq!(bytes[header_len + 2] & 0x80, 0x80);
    }

    #[test]
    fn pixel_map_clamps() {
        let q = M4Query::new(0, 100, 10).unwrap();
        let map = PixelMap::new(&q, 0.0, 10.0, 10, 5);
        assert_eq!(map.x(-50), 0);
        assert_eq!(map.x(500), 9);
        assert_eq!(map.y(-1e9), 0);
        assert_eq!(map.y(1e9), 4);
        // Degenerate value range.
        let flat = PixelMap::new(&q, 5.0, 5.0, 10, 5);
        assert_eq!(flat.y(5.0), 0);
    }
}
