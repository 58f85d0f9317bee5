//! One module per paper artifact. Each exposes
//! `run(&Harness) -> Vec<ExpRow>` (measurement experiments) or a
//! printing entry point (descriptive artifacts like Table 2 / Figure 8).

pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig8;
pub mod kernels;
pub mod pages;
pub mod pixels;
pub mod table2;
